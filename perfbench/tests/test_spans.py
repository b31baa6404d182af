"""Span recorder, rebinding helper and per-layer metric derivation.

Run with: python3 -m pytest perfbench/tests
"""

import json
import sys
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from layers import BOUNDARIES, LAYER_METRICS, OVERHEAD_METRIC, layer_metrics, moves
from spans import END, PARENT, REF, START, Boundary, Recorder, self_time, traced

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def fakepkg(tmp_path, monkeypatch):
    pkg = tmp_path / "fakepkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("")
    (pkg / "a.py").write_text(textwrap.dedent("""
        def leaf(x):
            return x + 1

        def outer(x):
            return leaf(x) + leaf(x)

        class Box:
            def get(self, x):
                return outer(x)
    """))
    (pkg / "b.py").write_text(textwrap.dedent("""
        from fakepkg.a import outer

        def call(x):
            return outer(x)
    """))
    monkeypatch.syspath_prepend(str(tmp_path))
    yield "fakepkg"
    for name in [m for m in sys.modules if m == "fakepkg" or m.startswith("fakepkg.")]:
        del sys.modules[name]


def test_rebinding_reaches_imported_names_and_restores(fakepkg):
    import fakepkg.a as a
    import fakepkg.b as b

    original = a.outer
    boundaries = [
        Boundary("outer", "fakepkg.a:outer", ref="q"),
        Boundary("leaf", "fakepkg.a:leaf"),
        Boundary("get", "fakepkg.a:Box.get"),
    ]
    recorder = Recorder()
    with traced(recorder, boundaries, fakepkg) as missing:
        assert missing == []
        assert b.call(1) == 4  # through b's own binding of `outer`
        assert a.Box().get(1) == 4
    assert a.outer is original and b.outer is original
    assert "get" in vars(a.Box) and a.Box.get.__name__ == "get"
    assert not hasattr(a.Box.get, "__wrapped__")

    names = [s[0] for s in recorder.spans]
    assert names == ["outer", "leaf", "leaf", "get", "outer", "leaf", "leaf"]
    first, leaf1, leaf2 = recorder.spans[:3]
    assert leaf1[PARENT] == leaf2[PARENT] == 0 and first[PARENT] == -1
    covered = (leaf1[END] - leaf1[START]) + (leaf2[END] - leaf2[START])
    assert self_time(first) == pytest.approx(first[END] - first[START] - covered, abs=1e-12)
    # Children inherit the question id of the span that opened one.
    assert first[REF] == "q1" and leaf1[REF] == "q1"
    assert recorder.spans[4][REF] == "q2"

    # After exit the program runs unwrapped: nothing more is recorded.
    b.call(1)
    assert len(recorder.spans) == 7


def test_missing_boundary_is_reported_not_zero(fakepkg):
    recorder = Recorder()
    boundaries = [
        Boundary("gone", "fakepkg.a:removed"),
        Boundary("gone_module", "fakepkg.nosuch:leaf"),
        Boundary("gone_method", "fakepkg.a:Box.removed"),
        Boundary("leaf", "fakepkg.a:leaf"),
    ]
    with traced(recorder, boundaries, fakepkg) as missing:
        pass
    assert missing == ["fakepkg.a:removed", "fakepkg.nosuch:leaf", "fakepkg.a:Box.removed"]

    values, missing_metrics = layer_metrics([], ["factpool.pooling:pool_forward"])
    for name in ("pooling.fwd.calls", "pooling.fwd.self_s", "pooling.edges_mean"):
        assert name in missing_metrics and name not in values
    assert values["pooling.bwd.calls"] == 0.0  # present boundary, no calls


def test_every_boundary_resolves_at_this_revision():
    recorder = Recorder()
    with traced(recorder, BOUNDARIES, "factpool") as missing:
        assert missing == []


def _tiny_experiment(tmp_path, kind):
    from factpool.config import Config
    from factpool.experiment import ExperimentConfig
    from factpool.synthetic import SyntheticSpec, write_synthetic

    paths = write_synthetic(
        SyntheticSpec(entities=200, relations=3, questions=18, candidates=3, seed=4), tmp_path
    )
    cfg = Config(L=1, d=16, heads=2, K=1, fusion_mode="early_late", vocab_size=128,
                 max_tokens=32, max_nodes=8, epochs=2, batch_size=4, seed=3)
    return ExperimentConfig(
        config=cfg, kg_path=str(paths["kg"]), dataset_path=str(paths["dataset"]),
        templates_path=str(paths["templates"]), train_count=12, test_count=6,
        model_kind=kind, seeds=(0,),
    )


@pytest.mark.parametrize("kind", ["pooled", "gnn"])
def test_traced_and_untraced_render_identical_bytes(tmp_path, kind):
    from factpool import experiment

    ecfg = _tiny_experiment(tmp_path, kind)
    untraced = experiment.run_experiment(replace(ecfg, out_dir=str(tmp_path / "u")))
    recorder = Recorder()
    with traced(recorder, BOUNDARIES, "factpool"):
        traced_metrics = experiment.run_experiment(replace(ecfg, out_dir=str(tmp_path / "t")))
    assert traced_metrics.render() == untraced.render()
    assert (tmp_path / "t" / f"metrics_{kind}.txt").read_bytes() == (
        tmp_path / "u" / f"metrics_{kind}.txt"
    ).read_bytes()

    values, missing = layer_metrics(recorder.spans, [])
    assert missing == []
    assert values["optim.step.calls"] == 6  # 2 epochs x 3 batches of 4
    assert values["model.train_step.p50_ms"] > 0
    busy, idle = ("pooling", "gnn") if kind == "pooled" else ("gnn", "pooling")
    assert values[f"{busy}.fwd.calls"] > 0 and values[f"{idle}.fwd.calls"] == 0
    assert values["experiment.train.wall_s"] > 0


def test_benchmark_json_matches_the_metric_tables():
    import run

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.E2E_UNITS.items())
    layer = [(m.name, m.unit) for m in LAYER_METRICS] + [OVERHEAD_METRIC]
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layer
    from workloads import WORKLOADS

    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_names_what_it_moves():
    for name in [m.name for m in LAYER_METRICS] + [OVERHEAD_METRIC[0]]:
        assert moves(name)
