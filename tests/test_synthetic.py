import hashlib

import numpy as np
import pytest

from oracles import bfs_distances, name_pool_oracle

from factpool.config import Config
from factpool.harness_data import tiny_benchmark
from factpool.model import build_encoder, create_model, prepare_dataset, relation_table
from factpool.synthetic import (
    LINK_RELATION,
    SyntheticSpec,
    _name_pool,
    generate_synthetic,
    write_synthetic,
)


def small_spec(**overrides):
    base = dict(
        entities=400, relations=4, questions=20, candidates=4,
        distractor_rate=0.5, kg_fraction=0.6, seed=7,
    )
    base.update(overrides)
    return SyntheticSpec(**base)


def test_same_seed_identical_files(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_synthetic(small_spec(), a)
    write_synthetic(small_spec(), b)
    for name in ("kg.tsv", "templates.tsv", "dataset.jsonl"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


ACCEPTANCE_SPEC = SyntheticSpec(
    entities=7000, relations=6, questions=700, distractor_rate=0.6, kg_fraction=0.6, seed=0
)


@pytest.mark.parametrize(
    "spec, digests",
    [
        pytest.param(
            ACCEPTANCE_SPEC,
            {
                "kg.tsv": "756ace52ff16f3795c146f72be5ff00c3bd004f92d4f123f9f97dc11d9bdc6a5",
                "templates.tsv": "58cfe26df761429409ed8fcd355da829e588cd836877fa61a51e7daffb11011c",
                "dataset.jsonl": "174da7ab522e16592cb3da04e5d3de3bd0ca4dd4bf0464d1033c31543361f10d",
            },
            id="acceptance",
        ),
        pytest.param(
            small_spec(),
            {
                "kg.tsv": "ef03cda60347fd0a7213b6857abe61034a7d13df599fa466b93f7e6f99b79006",
                "templates.tsv": "c5414c1facaf2960f7a030f671093b83fe6aa3bdc91fee9e727ba90116382750",
                "dataset.jsonl": "b26ff9398ec606f8408b132eb856a1f05341f7e4bf111d55de63fd0808bb037f",
            },
            id="small",
        ),
    ],
)
def test_generated_bytes_are_pinned(tmp_path, spec, digests):
    # The files are a function of the RNG call sequence: a change to how any
    # draw is made (not only what it draws) shifts every file after it.
    write_synthetic(spec, tmp_path)
    for name, digest in digests.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name


@pytest.mark.parametrize("primed", [False, True], ids=["fresh", "primed"])
@pytest.mark.parametrize("seed", [0, 1, 20240613])
@pytest.mark.parametrize("entities", [3, 7000, 20000])
def test_name_pool_matches_the_scalar_draw_oracle(entities, seed, primed):
    # One (entities, 2) draw must give the names and leave the generator
    # state that one scalar draw per syllable does, since every later draw
    # of the generator, and so every file, follows from that state.  A
    # primed generator has made one odd draw first, so it holds a buffered
    # 32-bit half when the pool starts.
    spec = small_spec(entities=entities)
    fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
    if primed:
        assert fast.integers(3) == slow.integers(3)
        assert fast.bit_generator.state["has_uint32"] == 1
    assert _name_pool(spec, fast) == name_pool_oracle(spec, slow)
    assert fast.bit_generator.state == slow.bit_generator.state


def test_zero_distractors_exact_fact_count():
    spec = small_spec(distractor_rate=0.0, questions=10)
    bench = generate_synthetic(spec)
    n_kg = sum(1 for r in bench.records if r.meta["kind"] == "kg")
    # per graph-determined question: two facts per candidate chain + one direct
    expected = n_kg * (2 * spec.candidates + 1)
    assert len(bench.facts) == expected


def test_linking_path_exists_for_kg_questions():
    bench = generate_synthetic(small_spec())
    adjacency = {}
    for fact in bench.facts:
        adjacency.setdefault(fact.head, set()).add(fact.tail)
        adjacency.setdefault(fact.tail, set()).add(fact.head)
    for record in bench.records:
        if record.meta["kind"] != "kg":
            continue
        qe1 = record.question.split()[3]
        answer = record.candidates[record.answer_index]
        dist = bfs_distances(adjacency, qe1)
        assert answer in dist and dist[answer] <= 2


def test_text_questions_answerable_from_marker():
    bench = generate_synthetic(small_spec())
    for record in bench.records:
        if record.meta["kind"] != "text":
            continue
        marked = [i for i, c in enumerate(record.candidates) if c.endswith(" certain")]
        assert marked == [record.answer_index]


def test_kg_questions_text_neutral():
    # candidate texts of graph-determined questions are bare entity names
    bench = generate_synthetic(small_spec())
    for record in bench.records:
        if record.meta["kind"] == "kg":
            assert all(len(c.split()) == 1 for c in record.candidates)


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
        SyntheticSpec(seed=-1)


def test_infeasible_spec_errors():
    with pytest.raises(ValueError, match="infeasible"):
        generate_synthetic(small_spec(entities=30, questions=50))


def test_kind_fractions():
    bench = generate_synthetic(small_spec(entities=1200, questions=100, kg_fraction=0.6))
    n_kg = sum(1 for r in bench.records if r.meta["kind"] == "kg")
    assert n_kg == 60


def test_hub_marker_only_on_correct_chain():
    bench = generate_synthetic(small_spec(questions=30))
    hub_targets = {}
    for fact in bench.facts:
        if fact.head.endswith("_hub") and fact.relation == LINK_RELATION:
            hub_targets[fact.head] = fact.tail
    assert hub_targets
    correct = {
        r.candidates[r.answer_index] for r in bench.records if r.meta["kind"] == "kg"
    }
    assert set(hub_targets.values()) <= correct


def test_entities_needed_is_the_feasibility_bound():
    needed = small_spec().entities_needed()
    assert len(generate_synthetic(small_spec(entities=needed)).records) == 20
    with pytest.raises(ValueError, match=f"need {needed} entities, only {needed - 1} available"):
        generate_synthetic(small_spec(entities=needed - 1))


@pytest.mark.parametrize("questions", [24, 64])
def test_tiny_benchmark_builds_and_prepares_larger_sets(questions):
    kg, templates, records = tiny_benchmark(questions=questions)
    cfg = Config(L=1, d=8, heads=2, vocab_size=64, max_tokens=32, max_nodes=8)
    model = create_model(cfg, "pooled", relation_table(kg))
    prepared = prepare_dataset(model, kg, templates, build_encoder(model), records)
    assert len(prepared) == questions
