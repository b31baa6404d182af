"""What a training step, a run and a seed free, and when.

Each test keeps weak references to objects that must be unreachable at a
named point and checks them there.  The cyclic collector is paused, so only
reference counting can have freed them: what these tests see freed is freed
as soon as its last reader is done, not at some later collection.
"""

import gc
import weakref
from contextlib import contextmanager

import pytest

from factpool import experiment
from factpool import model as model_mod
from factpool.config import Config
from factpool.experiment import ExperimentAssets, ExperimentConfig, run_experiment
from factpool.harness_data import tiny_benchmark
from factpool.model import build_encoder, create_model, prepare_dataset, relation_table, train_model

CFG = Config(L=2, d=16, heads=2, K=1, fusion_mode="early_late", vocab_size=64, max_tokens=48,
             max_nodes=8, epochs=1, batch_size=2, seed=0)


@contextmanager
def collector_paused():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def alive(refs) -> int:
    return sum(ref() is not None for ref in refs)


@pytest.fixture(scope="module")
def records():
    return tiny_benchmark(seed=1, questions=6)


def test_a_training_step_is_freed_before_the_next_step_runs(monkeypatch, records):
    kg, templates, questions = records
    model = create_model(CFG, "pooled", relation_table(kg))
    prepared = prepare_dataset(model, kg, templates, build_encoder(model), questions)
    results, grads, seen = [], [], []
    forward, backward = model_mod.batch_forward, model_mod.batch_backward

    def recording_forward(*args, **kwargs):
        seen.append((alive(results), alive(grads)))
        result = forward(*args, **kwargs)
        results.append(weakref.ref(result))
        return result

    def recording_backward(*args):
        out = backward(*args)
        grads.append(weakref.ref(out["fq.w1"]))
        return out

    monkeypatch.setattr(model_mod, "batch_forward", recording_forward)
    monkeypatch.setattr(model_mod, "batch_backward", recording_backward)
    with collector_paused():
        train_model(model, prepared)
    # one forward per step: no earlier step's result or gradients remain
    assert seen == [(0, 0)] * 3


def micro_run(records, **overrides) -> tuple[ExperimentConfig, ExperimentAssets]:
    kg, templates, all_records = records
    ecfg = ExperimentConfig(config=CFG, kg_path="", dataset_path="", templates_path="",
                            train_count=4, test_count=2, **overrides)
    assets = ExperimentAssets(kg, templates, all_records[:4], all_records[4:6])
    return ecfg, assets


def test_a_run_frees_its_training_set_before_preparing_the_test_set(monkeypatch, records):
    ecfg, assets = micro_run(records, seeds=(0,))
    train_refs, seen = [], []
    prepare = experiment.prepare_conditions

    def recording_prepare(model, templates, encoder, batch, *rest):
        if batch is assets.test_records:
            seen.append(alive(train_refs))
        prepared = prepare(model, templates, encoder, batch, *rest)
        if batch is assets.train_records:
            train_refs.extend(
                weakref.ref(q) for questions in prepared.values() for q in questions
            )
        return prepared

    monkeypatch.setattr(experiment, "prepare_conditions", recording_prepare)
    with collector_paused():
        run_experiment(ecfg, assets)
    assert len(train_refs) == 4
    assert seen == [0]


def test_each_seed_is_freed_before_the_next_seed_trains(monkeypatch, records):
    ecfg, assets = micro_run(records, seeds=(0, 1))
    models, tests, seen = [], [], []
    create, prepare, train = (
        experiment.create_model, experiment.prepare_conditions, experiment.train_model
    )

    def recording_create(*args):
        model = create(*args)
        models.append(weakref.ref(model))
        return model

    def recording_prepare(model, templates, encoder, batch, *rest):
        prepared = prepare(model, templates, encoder, batch, *rest)
        if batch is assets.test_records:
            tests.extend(weakref.ref(q) for questions in prepared.values() for q in questions)
        return prepared

    def recording_train(model, *args, **kwargs):
        seen.append((alive(models[:-1]), alive(tests)))
        return train(model, *args, **kwargs)

    monkeypatch.setattr(experiment, "create_model", recording_create)
    monkeypatch.setattr(experiment, "prepare_conditions", recording_prepare)
    monkeypatch.setattr(experiment, "train_model", recording_train)
    with collector_paused():
        run_experiment(ecfg, assets)
    assert len(models) == 2 and len(tests) == 8  # per seed, two conditions of two questions
    assert seen == [(0, 0), (0, 0)]
