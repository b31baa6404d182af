"""The three benchmark workloads, driven through factpool's public entry points.

Each workload makes its inputs from the seed with `factpool.synthetic` and
hands the program only files and records.  A workload has three parts:

    setup(seed, dir)           generate inputs into `dir` and load the assets
    unit(state, dir, tally)    the measured work, then the untimed loads the
                               checks need; returns the work's wall time, the
                               figures reported beside it and what the
                               checks verify.  What the checks need from the
                               last unit only is under "last_only", which
                               the caller drops from earlier units.
    check(state, outs, tally)  output checks; never timed or traced

`unit_s` is a unit's nominal wall time on one core, rounded up; a run
measures as many units as fit in its `--seconds` at that time, a number fixed
before it starts.  `setup_samples` is how many times a run sets up, spread
over the run; a set-up costs about 0.3 s on robust-* and 1 s on ground.

Operations (prepared questions, training steps, eval batches, CLI commands
and output checks) are counted into a `Tally`; an operation whose call
raises counts as failed.
"""

from __future__ import annotations

import contextlib
import math
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# Functions that are layer boundaries are called through their modules, not
# imported by name, so that the traced run's rebinding reaches these calls.
from factpool import cli, experiment, kg as kg_mod, model as fp_model
from factpool.config import Config, save_config
from factpool.data import load_dataset
from factpool.model import CONDITIONS, WITH_ANSWERS, WITHOUT_ANSWERS
from factpool.synthetic import SyntheticSpec, write_synthetic
from factpool.verbalize import load_templates

# Acceptance scale: 700 questions (~6.4k facts), a 500/200 split.  Batch 4
# for one epoch gives 125 optimizer steps, enough for a p90 step time with
# more than ten samples beyond it.
ROBUST_SPEC = dict(
    entities=7000, relations=6, questions=700, candidates=4, distractor_rate=0.6, kg_fraction=0.6
)
ROBUST_SPLIT = (500, 200)
ROBUST_CONFIG = Config(
    L=4, d=64, heads=4, K=2, fusion_mode="early_late", max_tokens=40, max_nodes=32,
    epochs=1, batch_size=4, seed=0,
)
EVAL_CHUNK = 64  # questions per batch in factpool.model.evaluate

# About 3x the acceptance KG (~18k facts).  Retrieval scans every fact per
# statement and `encode` rewrites its cache once per statement, so the
# commands run on the first questions only, which keeps a cycle near seven
# seconds and gives several cycles per run.
GROUND_SPEC = dict(
    entities=20000, relations=6, questions=2000, candidates=4, distractor_rate=0.6, kg_fraction=0.6
)
GROUND_RETRIEVE = 150
GROUND_ENCODE = 50
GROUND_CONFIG = replace(ROBUST_CONFIG, encoder_kind="shared-toy-encoder")


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    @contextlib.contextmanager
    def ops(self, count: int, what: str):
        """Count `count` operations, all failed if the block raises."""
        self.attempted += count
        try:
            yield
        except Exception:
            self.failed += count
            self.failures.append(f"{what}: raised")
            raise

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check {name} failed {detail}".rstrip())


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class Robust:
    """One `run_experiment` call at acceptance scale, as the robustness script runs it."""

    unit_s = 14.0
    setup_samples = 12

    def __init__(self, kind: str):
        self.kind = kind

    def setup(self, seed: int, work: Path):
        paths = write_synthetic(SyntheticSpec(**ROBUST_SPEC, seed=seed), work)
        ecfg = experiment.ExperimentConfig(
            config=ROBUST_CONFIG,
            kg_path=str(paths["kg"]),
            dataset_path=str(paths["dataset"]),
            templates_path=str(paths["templates"]),
            train_count=ROBUST_SPLIT[0],
            test_count=ROBUST_SPLIT[1],
            model_kind=self.kind,
            seeds=(0,),
        )
        return ecfg, experiment.load_assets(ecfg)

    def unit(self, state, work: Path, tally: Tally) -> dict:
        ecfg, assets = state
        train, test = len(assets.train_records), len(assets.test_records)
        ops = (
            train + 2 * test  # prepared questions
            + ecfg.config.epochs * _ceil_div(train, ecfg.config.batch_size)  # steps
            + 2 * _ceil_div(test, EVAL_CHUNK)  # eval batches
        )
        start = time.perf_counter()
        with tally.ops(ops, "run_experiment"):
            metrics = experiment.run_experiment(replace(ecfg, out_dir=str(work)), assets)
        wall = time.perf_counter() - start
        result = metrics.per_seed[0]
        ckpt = work / f"{self.kind}_seed{result.seed}" / "final.ckpt"
        with tally.ops(1, "load_model"):
            reloaded = fp_model.load_model(str(ckpt))
        return {
            "wall_s": wall,
            "metrics": metrics,
            "last_only": {"reloaded": reloaded},
            "info": {
                "acc_with_pct": result.acc_with,
                "acc_without_pct": result.acc_without,
                "final_loss": result.final_loss,
            },
        }

    def check(self, state, outs: list[dict], tally: Tally) -> None:
        ecfg, assets = state
        renders = {o["metrics"].render() for o in outs}
        tally.check("units_render_identical", len(renders) == 1)
        out = outs[-1]
        metrics = out["metrics"]

        with tally.ops(1, "pipeline_hashes"):
            other = experiment.pipeline_hashes(
                assets.kg, assets.train_records, ecfg.config, WITHOUT_ANSWERS
            )
        differ = sorted(k for k in other if metrics.pipeline_hashes.get(k) != other[k])
        tally.check(
            "hashes_differ_only_at_perturbation",
            set(other) == set(metrics.pipeline_hashes) and differ == ["perturbation"],
            f"(differing stages: {differ})",
        )

        losses = [r.final_loss for r in metrics.per_seed]
        tally.check("loss_finite", all(math.isfinite(x) for x in losses), f"({losses})")

        test = assets.test_records
        with tally.ops(2 * len(test) + 2 * _ceil_div(len(test), EVAL_CHUNK), "reloaded eval"):
            model = out["last_only"]["reloaded"]
            encoder = fp_model.build_encoder(model)
            accs = {
                c: fp_model.evaluate(
                    model,
                    fp_model.prepare_dataset(model, assets.kg, assets.templates, encoder, test, c),
                )
                for c in CONDITIONS
            }
        expected = {WITH_ANSWERS: metrics.per_seed[0].acc_with,
                    WITHOUT_ANSWERS: metrics.per_seed[0].acc_without}
        tally.check("reloaded_accuracy_bit_identical", accs == expected, f"({accs} vs {expected})")


class Ground:
    """Grounding only: the CLI's retrieve, perturb and encode, then a prepare
    that reads the embedding cache `encode` wrote."""

    unit_s = 8.0
    setup_samples = 8

    def setup(self, seed: int, work: Path):
        paths = write_synthetic(SyntheticSpec(**GROUND_SPEC, seed=seed), work)
        config_path = work / "run.cfg"
        save_config(GROUND_CONFIG, config_path)
        kg = kg_mod.load_kg(str(paths["kg"]))
        templates = load_templates(str(paths["templates"]))
        records = load_dataset(paths["dataset"])
        return paths, config_path, kg, templates, records

    def unit(self, state, work: Path, tally: Tally) -> dict:
        paths, config_path, kg, templates, records = state
        common = ["--kg", str(paths["kg"]), "--dataset", str(paths["dataset"]),
                  "--config", str(config_path), "--out", str(work)]
        stamps = [time.perf_counter()]
        for argv in (
            ["retrieve", *common, "--count", str(GROUND_RETRIEVE)],
            ["perturb", *common, "--count", str(GROUND_RETRIEVE)],
            ["encode", *common, "--templates", str(paths["templates"]),
             "--count", str(GROUND_ENCODE)],
        ):
            with tally.ops(1, f"factpool {argv[0]}"), contextlib.redirect_stdout(sys.stderr):
                status = cli.main(argv)
                if status != 0:
                    raise RuntimeError(f"factpool {argv[0]} exited with status {status}")
            stamps.append(time.perf_counter())
        subset = records[:GROUND_ENCODE]
        with tally.ops(2 * len(subset), "cached prepare"):
            model = fp_model.create_model(
                replace(GROUND_CONFIG, encoder_kind="external-file"),
                "pooled",
                fp_model.relation_table(kg),
            )
            encoder = fp_model.build_encoder(model, cache_path=str(work / "embeddings.bin"))
            prepared = [
                fp_model.prepare_dataset(model, kg, templates, encoder, subset, c)
                for c in CONDITIONS
            ]
        stamps.append(time.perf_counter())
        retrieve_s, perturb_s, encode_s, prepare_s = np.diff(stamps)
        return {
            "wall_s": stamps[-1] - stamps[0],
            "work": work,
            "last_only": {"prepared": prepared},
            "info": {
                "retrieve_qps": 2 * GROUND_RETRIEVE / (retrieve_s + perturb_s),
                "encode_qps": len(subset) / encode_s,
                "cached_prepare_qps": 2 * len(subset) / prepare_s,
            },
        }

    def check(self, state, outs: list[dict], tally: Tally) -> None:
        paths, config_path, kg, templates, records = state
        out = outs[-1]
        statements = sum(len(r.candidates) for r in records[:GROUND_RETRIEVE])
        for name in ("subgraphs.jsonl", "subgraphs_perturbed.jsonl"):
            with open(out["work"] / name, encoding="utf-8") as fh:
                lines = sum(1 for _ in fh)
            tally.check(f"{name}_one_line_per_statement", lines == statements,
                        f"({lines} lines, {statements} statements)")

        # The encoder `factpool encode` built from the same config file.
        shared = fp_model.build_encoder(
            fp_model.create_model(GROUND_CONFIG, "pooled", fp_model.relation_table(kg))
        )
        mismatched = 0
        for questions in out["last_only"]["prepared"]:
            for question in questions:
                for cand in question.candidates:
                    expected = [shared.encode_fact_text(f, t)
                                for f, t in zip(cand.facts, cand.fact_texts)]
                    if expected:
                        same = cand.edge_matrix.tobytes() == np.stack(expected).tobytes()
                    else:
                        same = cand.edge_matrix.shape[0] == 0
                    mismatched += not same
        tally.check("cached_edges_bit_identical", mismatched == 0,
                    f"({mismatched} candidates differ)")


WORKLOADS = {
    "robust-pooled": lambda: Robust("pooled"),
    "robust-gnn": lambda: Robust("gnn"),
    "ground": Ground,
}
