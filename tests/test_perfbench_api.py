"""What the benchmark in perfbench/ reaches of the program still exists.

perfbench/ changes only in its own revisions, so a refactor of the program
that renames or deletes a name the workloads call breaks every benchmark
run, and one that moves a traced function silently zeroes its per-layer
metrics.  The traced run also checks what the boundaries' attrs helpers
read of each call's arguments and results: the argument positions, the
cache layouts and the fields.
"""

import ast
import contextlib
import importlib
import sys
from dataclasses import replace
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import layers  # noqa: E402
import spans  # noqa: E402


def test_every_traced_boundary_resolves():
    missing = sorted({b.target for b in layers.BOUNDARIES if spans.resolve(b.target) is None})
    assert not missing


def program_names(path: Path):
    """(`from factpool import m as a` aliases -> module, `a.attr` uses with
    their lines, `from factpool.m import name` imports with their lines)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases, imported = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "factpool":
            for alias in node.names:
                if node.module == "factpool":
                    aliases[alias.asname or alias.name] = f"factpool.{alias.name}"
                else:
                    imported.append((node.module, alias.name, node.lineno))
    uses = [
        (node.value.id, node.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    ]
    return aliases, uses, imported


def test_every_program_name_the_workloads_use_exists():
    aliases, uses, imported = program_names(PERFBENCH / "workloads.py")
    assert {"fp_model", "experiment", "cli", "kg_mod"} <= set(aliases)
    assert {alias for alias, _, _ in uses} == set(aliases)
    missing = [
        f"line {line}: {alias}.{attr}"
        for alias, attr, line in uses
        if not hasattr(importlib.import_module(aliases[alias]), attr)
    ] + [
        f"line {line}: from {module} import {name}"
        for module, name, line in imported
        if not hasattr(importlib.import_module(module), name)
    ]
    assert not missing


def test_traced_workload_paths_record_every_layer_they_reach(tmp_path):
    # A miniature of each workload: a pooled and a gnn `run_experiment`,
    # then the ground cycle of retrieve, perturb and encode and a prepare
    # that reads the cache `encode` wrote, all under the benchmark's tracer.
    from factpool import cli, experiment, model as fp_model
    from factpool.config import Config, save_config
    from factpool.data import load_dataset
    from factpool.kg import load_kg
    from factpool.synthetic import SyntheticSpec, write_synthetic
    from factpool.verbalize import load_templates

    spec = SyntheticSpec(entities=200, relations=3, questions=10, candidates=3, kg_fraction=0.7)
    paths = write_synthetic(spec, tmp_path / "data")
    cfg = Config(
        L=2, d=16, heads=2, K=1, fusion_mode="early_late", max_tokens=48, max_nodes=8,
        epochs=1, batch_size=4, encoder_kind="shared-toy-encoder",
    )
    cfg_path = tmp_path / "run.cfg"
    save_config(cfg, cfg_path)
    recorder = spans.Recorder()
    with spans.traced(recorder, layers.BOUNDARIES, "factpool") as missing_targets:
        for kind in ("pooled", "gnn"):
            ecfg = experiment.ExperimentConfig(
                config=cfg,
                kg_path=str(paths["kg"]),
                dataset_path=str(paths["dataset"]),
                templates_path=str(paths["templates"]),
                train_count=6,
                test_count=4,
                model_kind=kind,
                seeds=(0,),
                out_dir=str(tmp_path / kind),
            )
            experiment.run_experiment(ecfg)
            fp_model.load_model(str(tmp_path / kind / f"{kind}_seed0" / "final.ckpt"))
        common = ["--kg", str(paths["kg"]), "--dataset", str(paths["dataset"]),
                  "--config", str(cfg_path), "--out", str(tmp_path / "ground")]
        for argv in (
            ["retrieve", *common, "--count", "4"],
            ["perturb", *common, "--count", "4"],
            ["encode", *common, "--templates", str(paths["templates"]), "--count", "4"],
        ):
            with contextlib.redirect_stdout(sys.stderr):
                assert cli.main(argv) == 0
        kg = load_kg(str(paths["kg"]))
        model = fp_model.create_model(
            replace(cfg, encoder_kind="external-file"), "pooled", fp_model.relation_table(kg)
        )
        encoder = fp_model.build_encoder(
            model, cache_path=str(tmp_path / "ground" / "embeddings.bin")
        )
        records = load_dataset(paths["dataset"])[:4]
        templates = load_templates(str(paths["templates"]))
        prepared = fp_model.prepare_dataset(model, kg, templates, encoder, records)
        # What the workloads' checks call: the reloaded evaluation and the
        # single-fact encodings.
        fp_model.evaluate(model, prepared)
        cand = next(c for q in prepared for c in q.candidates if c.facts)
        encoder.encode_fact_text(cand.facts[0], cand.fact_texts[0])
        shared = fp_model.build_encoder(fp_model.create_model(cfg, "pooled", model.relations))
        shared.encode_fact_text(cand.facts[0], cand.fact_texts[0])
    assert not missing_targets
    values, missing = layers.layer_metrics(recorder.spans, missing_targets)
    assert not missing
    assert {m.name for m in layers.LAYER_METRICS} == set(values)
    reached = {b.name for b in layers.BOUNDARIES}
    assert reached <= {span[spans.NAME] for span in recorder.spans}
