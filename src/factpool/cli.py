"""Command-line interface.

Subcommands: generate, retrieve, encode, train, eval, perturb, run, sweep,
explain, gradcheck, count-aggs.  `--config`, `--seed`, and `--out` are
common flags; `--seed` overrides the config file's seed.  `run` trains and
scores each model kind over seeds with and without answer edges (the
robustness study); `sweep` does so for one kind along K or max_nodes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from factpool.checkpoint import CheckpointError
from factpool.config import Config, load_config
from factpool.data import DatasetFormatError, load_dataset
from factpool.encoders import encode_subgraphs, read_embedding_cache, write_embedding_cache
from factpool.experiment import (
    DatasetTooSmallError,
    ExperimentConfig,
    compare_kinds,
    count_aggregations,
    delta_acc,
    explain,
    load_assets,
    sweep,
    sweep_cells,
)
from factpool.kg import KGFormatError, Subgraph, load_kg
from factpool.model import (
    CONDITIONS,
    MODEL_KINDS,
    WITH_ANSWERS,
    apply_condition,
    build_encoder,
    create_model,
    evaluate_conditions,
    gradient_check,
    ground_records,
    load_model,
    prepare_conditions,
    prepare_dataset,
    relation_table,
    train_model,
)
from factpool.synthetic import SyntheticSpec, write_synthetic
from factpool.util import atomic_write_text
from factpool.verbalize import TemplateError, load_templates


class UsageError(ValueError):
    """A flag value that only the loaded data can reject; exits 2 like argparse."""


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--out", type=str, default="out", help="output directory")


def _load_cfg(args) -> Config:
    try:
        cfg = load_config(args.config) if args.config else Config()
    except ValueError as err:
        raise UsageError(f"--config {args.config}: {err}") from None
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    return cfg


def _add_data_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kg", type=str, required=True)
    parser.add_argument("--dataset", type=str, required=True)
    parser.add_argument("--templates", type=str, default=None)


def _dataset_slice(args, records):
    skip = getattr(args, "skip", 0) or 0
    count = getattr(args, "count", None)
    return records[skip:] if count is None else records[skip : skip + count]


def _write_subgraphs(args, condition: str) -> Path:
    cfg = _load_cfg(args)
    kg = load_kg(args.kg)
    records = _dataset_slice(args, load_dataset(args.dataset))
    lines = []
    for q_index, statements in enumerate(ground_records(kg, records, cfg.max_nodes)):
        for c_index, (stmt, sub) in enumerate(statements):
            payload = json.loads(apply_condition(sub, stmt, condition).canonical())
            payload["question_index"] = q_index
            payload["candidate_index"] = c_index
            lines.append(json.dumps(payload, sort_keys=True))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    name = "subgraphs.jsonl" if condition == WITH_ANSWERS else "subgraphs_perturbed.jsonl"
    path = out / name
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def cmd_generate(args) -> int:
    spec = SyntheticSpec(
        entities=args.entities,
        relations=args.relations,
        questions=args.questions,
        candidates=args.candidates,
        distractor_rate=args.distractor_rate,
        kg_fraction=args.kg_fraction,
        seed=args.seed if args.seed is not None else 0,
    )
    paths = write_synthetic(spec, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_retrieve(args) -> int:
    path = _write_subgraphs(args, WITH_ANSWERS)
    print(f"subgraphs: {path}")
    return 0


def cmd_perturb(args) -> int:
    path = _write_subgraphs(args, "without_answers")
    print(f"subgraphs: {path}")
    return 0


def cmd_encode(args) -> int:
    cfg = _load_cfg(args)
    kg = load_kg(args.kg)
    templates = load_templates(args.templates)
    records = _dataset_slice(args, load_dataset(args.dataset))
    model = create_model(cfg, "pooled", relation_table(kg))
    encoder = build_encoder(model)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cache_path = out / "embeddings.bin"
    try:
        cache, dim = read_embedding_cache(str(cache_path))
    except FileNotFoundError:
        cache, dim = {}, encoder.dim
    if dim != encoder.dim:
        raise UsageError(f"{cache_path}: embedding cache width {dim} != config width d={cfg.d}")
    subgraphs = [sub for subs in ground_records(kg, records, cfg.max_nodes) for _, sub in subs]
    if encode_subgraphs(subgraphs, templates, encoder, cache):
        write_embedding_cache(str(cache_path), cache, dim)
    total = sum(len(sub.edges) for sub in subgraphs)
    print(f"cache: {cache_path} ({total} edge encodings)")
    return 0


def cmd_train(args) -> int:
    kg = load_kg(args.kg)
    templates = load_templates(args.templates)
    records = _dataset_slice(args, load_dataset(args.dataset))
    model = create_model(_load_cfg(args), args.model, relation_table(kg))
    encoder = build_encoder(model, cache_path=args.cache)
    prepared = prepare_dataset(model, kg, templates, encoder, records, args.condition)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    losses = train_model(model, prepared, out_dir=str(out), log=True)
    atomic_write_text(out / "loss_curve.txt", "\n".join(f"{x:.12g}" for x in losses) + "\n")
    print(f"final loss: {losses[-1]:.6f}; checkpoints in {out}")
    return 0


def cmd_eval(args) -> int:
    model = load_model(args.checkpoint)
    kg = load_kg(args.kg)
    templates = load_templates(args.templates)
    records = _dataset_slice(args, load_dataset(args.dataset))
    encoder = build_encoder(model, cache_path=args.cache)
    grounding = ground_records(kg, records, model.cfg.max_nodes)
    prepared = prepare_conditions(model, templates, encoder, records, grounding)
    accs = evaluate_conditions(model, prepared)
    lines = [f"acc_{condition}={accs[condition]:.10g}" for condition in CONDITIONS]
    lines.append(f"delta_acc={delta_acc(accs['with_answers'], accs['without_answers']):.10g}")
    text = "\n".join(lines) + "\n"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "eval.txt", text)
    print(text, end="")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    cfg = _load_cfg(args)
    return ExperimentConfig(
        config=cfg,
        kg_path=args.kg,
        dataset_path=args.dataset,
        templates_path=args.templates,
        train_count=args.train_count,
        test_count=args.test_count,
        seeds=tuple(args.seeds) if args.seeds else (cfg.seed,),
        out_dir=args.out,
    )


def _experiment_assets(ecfg: ExperimentConfig):
    try:
        return load_assets(ecfg)
    except DatasetTooSmallError as err:
        raise UsageError(
            f"--train-count {ecfg.train_count} --test-count {ecfg.test_count}: {err}"
        ) from None


def cmd_run(args) -> int:
    ecfg = _experiment_config(args)
    _, text = compare_kinds(ecfg, args.kinds, _experiment_assets(ecfg))
    print(text, end="")
    return 0


def cmd_sweep(args) -> int:
    ecfg = replace(_experiment_config(args), model_kind=args.model, condition=args.condition)
    try:
        sweep_cells(ecfg, args.axis, args.values)
    except ValueError as err:
        raise UsageError(f"--axis {args.axis} --values: {err}") from None
    _, text = sweep(ecfg, args.axis, args.values, _experiment_assets(ecfg))
    print(text, end="")
    return 0


def cmd_explain(args) -> int:
    model = load_model(args.checkpoint)
    kg = load_kg(args.kg)
    templates = load_templates(args.templates)
    records = load_dataset(args.dataset)
    if args.question_index >= len(records):
        raise UsageError(
            f"--question-index {args.question_index} is out of range: "
            f"{args.dataset} has {len(records)} questions"
        )
    record = records[args.question_index]
    encoder = build_encoder(model, cache_path=getattr(args, "cache", None))
    report = explain(model, kg, templates, encoder, record, top_n=args.top_n)
    text = report.render()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "explain.txt", text)
    print(text, end="")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_cfg(args)
    from factpool.harness_data import tiny_gradcheck_setup

    model, prepared = tiny_gradcheck_setup(cfg, args.model)
    report = gradient_check(model, prepared, max_per_param=args.max_per_param)
    for line in report.lines():
        print(line)
    return 0 if report.max_error < 1e-4 else 1


def cmd_count_aggs(args) -> int:
    cfg = _load_cfg(args)
    for n in sorted(set(args.nodes)):
        sub = Subgraph(nodes={f"n{i}" for i in range(n)}, edges=set())
        pooled = count_aggregations("pooled", sub, cfg)
        gnn = count_aggregations("gnn", sub, cfg)
        print(
            f"|V_q|={n}: pooled K={cfg.K} -> {pooled} aggregations; "
            f"gnn L_g={cfg.gnn_layers} -> {gnn} node updates"
        )
    return 0


def _int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}: {text!r}")
        return value

    return parse


_non_negative_int = _int_at_least(0)
_positive_int = _int_at_least(1)


def _add_slice_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--skip", type=_non_negative_int, default=0)
    parser.add_argument("--count", type=_positive_int, default=None)


def _ints_at_least(low: int):
    """argparse type: a comma-separated list of integers >= low."""
    return lambda text: [_int_at_least(low)(v) for v in text.split(",")]


def _model_kinds(text: str) -> list[str]:
    """argparse type: a comma-separated list of distinct model kinds."""
    kinds = text.split(",")
    if not set(kinds) <= set(MODEL_KINDS) or len(set(kinds)) < len(kinds):
        raise argparse.ArgumentTypeError(f"want distinct kinds of {MODEL_KINDS}: {text!r}")
    return kinds


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--train-count", dest="train_count", type=_positive_int, required=True)
    parser.add_argument("--test-count", dest="test_count", type=_positive_int, required=True)
    parser.add_argument("--seeds", type=_ints_at_least(0), default=None, help="comma-separated")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="factpool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic KG + dataset + templates")
    _common_flags(p)
    p.add_argument("--entities", type=int, default=6000)
    p.add_argument("--relations", type=int, default=4)
    p.add_argument("--questions", type=int, default=700)
    p.add_argument("--candidates", type=int, default=4)
    p.add_argument("--distractor-rate", dest="distractor_rate", type=float, default=0.5)
    p.add_argument("--kg-fraction", dest="kg_fraction", type=float, default=0.6)
    p.set_defaults(func=cmd_generate)

    for name, func, help_text in (
        ("retrieve", cmd_retrieve, "write retrieved per-candidate subgraphs"),
        ("perturb", cmd_perturb, "write subgraphs with answer edges removed"),
    ):
        p = sub.add_parser(name, help=help_text)
        _common_flags(p)
        _add_data_flags(p)
        _add_slice_flags(p)
        p.set_defaults(func=func)

    p = sub.add_parser("encode", help="populate an edge-embedding cache file")
    _common_flags(p)
    _add_data_flags(p)
    _add_slice_flags(p)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("train", help="train a model")
    _common_flags(p)
    _add_data_flags(p)
    p.add_argument("--model", choices=MODEL_KINDS, default="pooled")
    p.add_argument("--condition", choices=CONDITIONS, default=WITH_ANSWERS)
    _add_slice_flags(p)
    p.add_argument("--cache", type=str, default=None, help="embedding cache file")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint under both conditions")
    _common_flags(p)
    _add_data_flags(p)
    p.add_argument("--checkpoint", type=str, required=True)
    _add_slice_flags(p)
    p.add_argument("--cache", type=str, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("run", help="each model kind with and without answer edges")
    _common_flags(p)
    _add_data_flags(p)
    p.add_argument(
        "--kinds", type=_model_kinds, default=MODEL_KINDS, help="comma-separated; default all"
    )
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="grid over K or max_nodes")
    _common_flags(p)
    _add_data_flags(p)
    p.add_argument("--axis", choices=("K", "max_nodes"), required=True)
    p.add_argument("--values", type=_ints_at_least(0), default=None, help="comma-separated")
    p.add_argument("--model", choices=MODEL_KINDS, default="pooled")
    p.add_argument("--condition", choices=CONDITIONS, default=WITH_ANSWERS)
    _add_experiment_flags(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("explain", help="top scored facts per fusion layer")
    _common_flags(p)
    _add_data_flags(p)
    p.add_argument("--checkpoint", type=str, required=True)
    p.add_argument(
        "--question-index", dest="question_index", type=_non_negative_int, default=0
    )
    p.add_argument("--top-n", dest="top_n", type=_positive_int, default=3)
    p.add_argument("--cache", type=str, default=None)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    _common_flags(p)
    p.add_argument("--model", choices=MODEL_KINDS, default="pooled")
    p.add_argument("--max-per-param", dest="max_per_param", type=_positive_int, default=None)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("count-aggs", help="aggregation counts per statement")
    _common_flags(p)
    p.add_argument("--nodes", type=_ints_at_least(1), default="4,16,32", help="comma-separated")
    p.set_defaults(func=cmd_count_aggs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (KGFormatError, DatasetFormatError, TemplateError, CheckpointError) as exc:
        # A bad input file: its typed error names the file; status 1, not a traceback.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
