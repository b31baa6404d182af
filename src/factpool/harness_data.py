"""Small built-in data setups used by the CLI gradcheck and the test suite."""

from __future__ import annotations

from dataclasses import replace

from factpool.config import Config
from factpool.kg import KnowledgeGraph
from factpool.model import build_encoder, create_model, prepare_dataset, relation_table
from factpool.synthetic import SyntheticSpec, generate_synthetic


def tiny_benchmark(seed: int = 0, questions: int = 4, candidates: int = 3):
    """A miniature KG + records + templates, built in memory."""
    spec = SyntheticSpec(
        entities=30 + questions * (2 + candidates + 1),
        relations=3,
        questions=questions,
        candidates=candidates,
        distractor_rate=0.5,
        kg_fraction=0.7,
        seed=seed,
    )
    # The pool above is roomy for small sets; larger ones take the minimum.
    spec.entities = max(spec.entities, spec.entities_needed())
    bench = generate_synthetic(spec)
    return KnowledgeGraph(bench.facts), bench.templates, bench.records


def tiny_gradcheck_setup(cfg: Config, kind: str, questions: int = 2):
    """Shrink the config to finite-difference scale and prepare a microbatch."""
    pooled = kind == "pooled"
    L = min(cfg.L, 2)
    small = replace(
        cfg,
        L=L,
        d=16,
        heads=2,
        K=min(2, L) if pooled else 0,
        fusion_mode="early_late" if pooled else "early",
        vocab_size=64,
        max_tokens=48,
        max_nodes=8,
        precision="f64",
    )
    kg, templates, records = tiny_benchmark(seed=small.seed, questions=max(questions, 2))
    model = create_model(small, kind, relation_table(kg))
    encoder = build_encoder(model)
    prepared = prepare_dataset(model, kg, templates, encoder, records[:questions])
    return model, prepared
