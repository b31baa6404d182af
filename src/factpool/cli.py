"""Command-line interface.

Subcommands: generate, retrieve, encode, train, eval, perturb, run, sweep,
explain, gradcheck, count-aggs.  Each command takes exactly the flags it
reads (`COMMANDS`); every flag is declared once (`FLAGS`).  `--seed`
overrides the config file's seed.  `run` trains and scores each model kind
over seeds with and without answer edges (the robustness study); `sweep`
does so for one kind along K or max_nodes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import fields, replace
from pathlib import Path

from factpool.checkpoint import CheckpointError
from factpool.config import Config, load_config
from factpool.data import DatasetFormatError, load_dataset, require_training_candidates
from factpool.encoders import (
    FileBackedEncoder,
    encode_subgraphs,
    read_embedding_cache,
    write_embedding_cache,
)
from factpool.experiment import (
    SWEEP_VALUES,
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
from factpool.kg import KGFormatError, load_kg
from factpool.model import (
    CONDITIONS,
    MODEL_KINDS,
    WITH_ANSWERS,
    WITHOUT_ANSWERS,
    apply_condition,
    build_encoder,
    check_fact_texts,
    create_model,
    evaluate_conditions,
    gradient_check,
    ground_records,
    load_model,
    make_encoder,
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


def _load_cfg(path: str | None, seed: int | None = None) -> Config:
    """The --config file's Config, with `seed` (--seed) in place of its seed."""
    try:
        cfg = load_config(path) if path else Config()
    except ValueError as err:
        raise UsageError(f"--config {path}: {err}") from None
    return cfg if seed is None else replace(cfg, seed=seed)


def _file_encoder(
    flag: str, path: str | None, cfg: Config, kinds, cache: str | None = None
) -> FileBackedEncoder | None:
    """The --cache encoder of an external-file config; None for the other
    encoder kinds, whose encoder `make_encoder` makes from the config.

    `cfg` is read from `path` given by `flag` (--config or --checkpoint).  A
    command that encodes facts for models of `kinds` calls this before it
    reads any other input, so an encoder it cannot run is a usage error first.
    """
    if cfg.encoder_kind != "external-file":
        if cache is not None:
            raise UsageError(f"--cache {cache}: encoder_kind={cfg.encoder_kind} reads no cache")
        return None
    if "gnn" in kinds:
        raise UsageError(
            f"{flag} {path}: encoder_kind=external-file cannot encode a gnn model's entity states"
        )
    if cache is None:
        # Of the commands that take --config, only train takes --cache.
        which = ", which only train takes" if flag == "--config" else ""
        raise UsageError(f"{flag} {path}: encoder_kind=external-file needs --cache{which}")
    encoder = FileBackedEncoder(cache)
    if encoder.dim != cfg.d:
        raise UsageError(
            f"--cache {cache}: embedding cache width {encoder.dim} != model width d={cfg.d}"
        )
    return encoder


def _checkpoint_model(args, pooled_only: bool = False):
    """The --checkpoint model and its encoder, checked before any other input."""
    path = args.checkpoint
    model = load_model(path)
    if pooled_only and model.kind != "pooled":
        raise UsageError(f"--checkpoint {path}: explain needs a pooled model, not {model.kind}")
    encoder = _file_encoder("--checkpoint", path, model.cfg, (model.kind,), args.cache)
    return model, encoder or build_encoder(model)


def _dataset_slice(args, records):
    end = len(records) if args.count is None else args.skip + args.count
    flags = f"--skip {args.skip}" + ("" if args.count is None else f" --count {args.count}")
    if args.skip >= len(records):
        raise UsageError(f"{flags} selects no record: {args.dataset} has {len(records)}")
    if end > len(records):
        raise UsageError(f"{flags} runs past the last record: {args.dataset} has {len(records)}")
    return records[args.skip : end]


def _write_subgraphs(args, condition: str) -> Path:
    cfg = _load_cfg(args.config)
    kg = load_kg(args.kg)
    records = _dataset_slice(args, load_dataset(args.dataset))
    lines = []
    for q_index, statements in enumerate(ground_records(kg, records, cfg.max_nodes)):
        for c_index, (stmt, sub) in enumerate(statements):
            payload = apply_condition(sub, stmt, condition).payload()
            payload["question_index"] = q_index
            payload["candidate_index"] = c_index
            lines.append(json.dumps(payload, sort_keys=True))
    name = "subgraphs.jsonl" if condition == WITH_ANSWERS else "subgraphs_perturbed.jsonl"
    path = Path(args.out) / name
    atomic_write_text(path, "\n".join(lines) + "\n")
    return path


def cmd_generate(args) -> int:
    values = {f.name: getattr(args, f.name) for f in fields(SyntheticSpec) if f.name != "seed"}
    try:
        spec = SyntheticSpec(**values, seed=args.seed if args.seed is not None else 0)
        spec.check_feasible()
    except ValueError as err:
        flags = " ".join(f"--{name.replace('_', '-')} {value}" for name, value in values.items())
        raise UsageError(f"{flags}: {err}") from None
    paths = write_synthetic(spec, args.out)
    for name, path in paths.items():
        print(f"{name}: {path}")
    return 0


def cmd_retrieve(args) -> int:
    path = _write_subgraphs(args, WITH_ANSWERS)
    print(f"subgraphs: {path}")
    return 0


def cmd_perturb(args) -> int:
    path = _write_subgraphs(args, WITHOUT_ANSWERS)
    print(f"subgraphs: {path}")
    return 0


def cmd_encode(args) -> int:
    cfg = _load_cfg(args.config, args.seed)
    _file_encoder("--config", args.config, cfg, ("pooled",))
    kg = load_kg(args.kg)
    templates = load_templates(args.templates)
    records = _dataset_slice(args, load_dataset(args.dataset))
    encoder = make_encoder(cfg, "pooled")
    grounding = ground_records(kg, records, cfg.max_nodes)
    check_fact_texts(grounding, templates)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cache_path = out / "embeddings.bin"
    try:
        cache, dim = read_embedding_cache(str(cache_path))
    except FileNotFoundError:
        cache, dim = {}, encoder.dim
    if dim != encoder.dim:
        raise UsageError(f"{cache_path}: embedding cache width {dim} != config width d={cfg.d}")
    subgraphs = [sub for statements in grounding for _, sub in statements]
    facts, _, vectors = encode_subgraphs(subgraphs, templates, encoder, cache)
    if facts:
        cache.update((fact.key(), vector) for fact, vector in zip(facts, vectors))
        write_embedding_cache(str(cache_path), cache, dim)
    total = sum(len(sub.edges) for sub in subgraphs)
    print(f"cache: {cache_path} ({total} edge encodings)")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args.config, args.seed)
    cached = _file_encoder("--config", args.config, cfg, (args.model,), args.cache)
    kg = load_kg(args.kg)
    templates = load_templates(args.templates)
    records = _dataset_slice(args, load_dataset(args.dataset))
    require_training_candidates(records, args.dataset)
    model = create_model(cfg, args.model, relation_table(kg))
    encoder = cached or build_encoder(model)
    prepared = prepare_dataset(model, kg, templates, encoder, records, args.condition)
    out = Path(args.out)
    losses = train_model(model, prepared, out_dir=str(out), log=True)
    atomic_write_text(out / "loss_curve.txt", "\n".join(f"{x:.12g}" for x in losses) + "\n")
    print(f"final loss: {losses[-1]:.6f}; checkpoints in {out}")
    return 0


def cmd_eval(args) -> int:
    model, encoder = _checkpoint_model(args)
    kg = load_kg(args.kg)
    templates = load_templates(args.templates)
    records = _dataset_slice(args, load_dataset(args.dataset))
    grounding = ground_records(kg, records, model.cfg.max_nodes)
    prepared = prepare_conditions(model, templates, encoder, records, grounding)
    accs = evaluate_conditions(model, prepared)
    lines = [f"acc_{condition}={accs[condition]:.10g}" for condition in CONDITIONS]
    lines.append(f"delta_acc={delta_acc(accs[WITH_ANSWERS], accs[WITHOUT_ANSWERS]):.10g}")
    text = "\n".join(lines) + "\n"
    atomic_write_text(Path(args.out) / "eval.txt", text)
    print(text, end="")
    return 0


def _experiment_config(args, kinds) -> ExperimentConfig:
    cfg = _load_cfg(args.config, args.seed)
    _file_encoder("--config", args.config, cfg, kinds)
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
    ecfg = _experiment_config(args, args.kinds)
    _, text = compare_kinds(ecfg, args.kinds, _experiment_assets(ecfg))
    print(text, end="")
    return 0


def cmd_sweep(args) -> int:
    ecfg = _experiment_config(args, (args.model,))
    ecfg = replace(ecfg, model_kind=args.model, condition=args.condition)
    try:
        sweep_cells(ecfg, args.axis, args.values)
    except ValueError as err:
        raise UsageError(f"--axis {args.axis} --values: {err}") from None
    _, text = sweep(ecfg, args.axis, args.values, _experiment_assets(ecfg))
    print(text, end="")
    return 0


def cmd_explain(args) -> int:
    model, encoder = _checkpoint_model(args, pooled_only=True)
    kg = load_kg(args.kg)
    templates = load_templates(args.templates)
    records = load_dataset(args.dataset)
    if args.question_index >= len(records):
        raise UsageError(
            f"--question-index {args.question_index} is out of range: "
            f"{args.dataset} has {len(records)} questions"
        )
    record = records[args.question_index]
    report = explain(model, kg, templates, encoder, record, top_n=args.top_n)
    text = report.render()
    atomic_write_text(Path(args.out) / "explain.txt", text)
    print(text, end="")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load_cfg(args.config, args.seed)
    _file_encoder("--config", args.config, cfg, (args.model,))
    from factpool.harness_data import tiny_gradcheck_setup

    model, prepared = tiny_gradcheck_setup(cfg, args.model)
    report = gradient_check(model, prepared, max_per_param=args.max_per_param)
    for line in report.lines():
        print(line)
    return 0 if report.max_error < 1e-4 else 1


def cmd_count_aggs(args) -> int:
    cfg = _load_cfg(args.config)
    for n in sorted(set(args.nodes)):
        pooled = count_aggregations("pooled", n, cfg)
        gnn = count_aggregations("gnn", n, cfg)
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


def _ints_at_least(low: int):
    """argparse type: a comma-separated list of integers >= low."""
    return lambda text: [_int_at_least(low)(v) for v in text.split(",")]


def _model_kinds(text: str) -> list[str]:
    """argparse type: a comma-separated list of distinct model kinds."""
    kinds = text.split(",")
    if not set(kinds) <= set(MODEL_KINDS) or len(set(kinds)) < len(kinds):
        raise argparse.ArgumentTypeError(f"want distinct kinds of {MODEL_KINDS}: {text!r}")
    return kinds


# The generator's flags: one per `SyntheticSpec` field but the seed, with its default.
_SPEC_FLAGS = {
    f"--{f.name.replace('_', '-')}": dict(type=type(f.default), default=f.default)
    for f in fields(SyntheticSpec)
    if f.name != "seed"
}

# Every flag, once: name -> add_argument keywords.
FLAGS = {
    "--config": dict(default=None, help="key=value config file"),
    "--seed": dict(type=_int_at_least(0), default=None, help="override the config seed"),
    "--out": dict(default="out", help="output directory"),
    **_SPEC_FLAGS,
    "--kg": dict(required=True),
    "--dataset": dict(required=True),
    "--templates": dict(required=True),
    "--skip": dict(type=_int_at_least(0), default=0),
    "--count": dict(type=_int_at_least(1), default=None),
    "--model": dict(choices=MODEL_KINDS, default="pooled"),
    "--condition": dict(choices=CONDITIONS, default=WITH_ANSWERS),
    "--cache": dict(default=None, help="embedding cache file"),
    "--checkpoint": dict(required=True),
    "--question-index": dict(type=_int_at_least(0), default=0),
    "--top-n": dict(type=_int_at_least(1), default=3),
    "--train-count": dict(type=_int_at_least(1), required=True),
    "--test-count": dict(type=_int_at_least(1), required=True),
    "--seeds": dict(type=_ints_at_least(0), default=None, help="comma-separated"),
    "--kinds": dict(type=_model_kinds, default=MODEL_KINDS, help="comma-separated; default all"),
    "--axis": dict(choices=tuple(SWEEP_VALUES), required=True),
    "--values": dict(type=_ints_at_least(0), default=None, help="comma-separated"),
    "--max-per-param": dict(type=_int_at_least(1), default=None),
    "--nodes": dict(type=_ints_at_least(1), default="4,16,32", help="comma-separated"),
}

_SUBGRAPH_FLAGS = ("--config", "--out", "--kg", "--dataset", "--skip", "--count")
_ENCODE_FLAGS = (
    "--config", "--seed", "--out", "--kg", "--dataset", "--templates", "--skip", "--count",
)
_EXPERIMENT_FLAGS = (
    "--config", "--seed", "--out", "--kg", "--dataset", "--templates",
    "--train-count", "--test-count", "--seeds",
)

# Each command: (help, exactly the flags its handler `cmd_<name>` reads).
COMMANDS = {
    "generate": (
        "write a synthetic KG + dataset + templates",
        ("--seed", "--out", *_SPEC_FLAGS),
    ),
    "retrieve": ("write retrieved per-candidate subgraphs", _SUBGRAPH_FLAGS),
    "perturb": ("write subgraphs with answer edges removed", _SUBGRAPH_FLAGS),
    "encode": ("populate an edge-embedding cache file", _ENCODE_FLAGS),
    "train": ("train a model", (*_ENCODE_FLAGS, "--model", "--condition", "--cache")),
    "eval": (
        "evaluate a checkpoint under both conditions",
        ("--out", "--kg", "--dataset", "--templates", "--skip", "--count", "--checkpoint",
         "--cache"),
    ),
    "run": ("each model kind with and without answer edges", (*_EXPERIMENT_FLAGS, "--kinds")),
    "sweep": (
        "grid over K or max_nodes",
        (*_EXPERIMENT_FLAGS, "--axis", "--values", "--model", "--condition"),
    ),
    "explain": (
        "top scored facts per fusion layer",
        ("--out", "--kg", "--dataset", "--templates", "--checkpoint", "--question-index",
         "--top-n", "--cache"),
    ),
    "gradcheck": (
        "finite-difference gradient verification",
        ("--config", "--seed", "--model", "--max-per-param"),
    ),
    "count-aggs": ("aggregation counts per statement", ("--config", "--nodes")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="factpool", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Looked up per call, so a rebound `cmd_<name>` (a tracer's, a test's) is the one run.
    handler = globals()[f"cmd_{args.command.replace('-', '_')}"]
    try:
        return handler(args)
    except UsageError as exc:
        parser.error(str(exc))
    except (KGFormatError, DatasetFormatError, TemplateError, CheckpointError, OSError) as exc:
        # A bad or missing input file: the error names the file; status 1, not a traceback.
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
