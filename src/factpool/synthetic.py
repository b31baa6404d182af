"""Deterministic synthetic benchmark: a KG plus multiple-choice questions.

Two question families share one knowledge graph:

  * graph-determined: the question text names two fresh entities (qe1, qe2)
    and asks what connects with them.  Every candidate entity hangs off qe1
    through its own two-hop chain qe1 -(noise)-> z_j -(r_j)-> candidate_j,
    so all candidates link and the chains are structurally interchangeable.
    For the correct candidate only, the middle node's surface carries the
    marker token "hub", the chain's answer-side relation is
    `connects_with`, and a direct `connects_with` fact from qe2 is added.
    With answer edges intact, correctness is signalled by answer-side
    relation types and connectivity; after answer-edge removal the chains
    lose their answer hops and the sole surviving evidence is the bridge
    node's marker name sitting one noise-typed hop from qe1 - equally deep
    for every candidate, so no degree or relation-type cue remains.  The
    question text alone carries no signal.
  * text-determined: the correct candidate carries the marker word
    "certain" while wrong candidates carry filler words; their entities do
    not appear in the KG, so the graph is uninformative for these.

Distractor noise is added as two-hop connector chains
qe -(noise)-> background entity -(noise)-> other qe, which guarantees the
noise actually lands inside retrieved subgraphs.  Entities are fresh per
question, so a model must use relational/textual structure (not entity
identity) to generalize to held-out questions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from factpool.data import QuestionRecord, save_dataset
from factpool.kg import Fact
from factpool.verbalize import TemplateTable, save_templates

LINK_RELATION = "connects_with"
_SYLLABLES = ("ba", "ce", "di", "fo", "gu", "ka", "le", "mi", "no", "pu", "ra", "se", "ti", "vo")
_WRONG_MARKERS = ("possible", "unlikely", "doubtful")
_CORRECT_MARKER = "certain"


@dataclass
class SyntheticSpec:
    entities: int = 6000
    relations: int = 4
    questions: int = 700
    candidates: int = 4
    distractor_rate: float = 0.5
    kg_fraction: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.entities, self.relations, self.questions, self.candidates) < 1:
            raise ValueError("spec counts must be positive")
        if self.relations < 2:
            raise ValueError("need at least the link relation and one noise relation")
        if not 0.0 <= self.kg_fraction <= 1.0:
            raise ValueError("kg_fraction must be in [0, 1]")
        if not 0.0 <= self.distractor_rate <= 1.0:
            raise ValueError("distractor_rate must be in [0, 1]")

    def entities_needed(self) -> int:
        """The fewest `entities` `generate_synthetic` accepts: qe1, qe2 and the
        candidates of every question, one chain node per candidate on
        graph-determined questions, and a noise pool of at least 4."""
        n_kg = int(round(self.kg_fraction * self.questions))
        return self.questions * (2 + self.candidates) + n_kg * self.candidates + 4


@dataclass
class SyntheticBenchmark:
    records: list[QuestionRecord]
    facts: list[Fact]
    templates: TemplateTable


def _name_pool(spec: SyntheticSpec, rng: np.random.Generator) -> list[str]:
    names = []
    for i in range(spec.entities):
        stem = "".join(rng.choice(_SYLLABLES) for _ in range(2))
        names.append(f"{stem}{i}")
    return names


def generate_synthetic(spec: SyntheticSpec) -> SyntheticBenchmark:
    rng = np.random.default_rng(spec.seed)
    n_kg = int(round(spec.kg_fraction * spec.questions))
    needed = spec.entities_needed()
    if spec.entities < needed:
        raise ValueError(
            f"infeasible spec: {spec.questions} questions need {needed} entities, "
            f"only {spec.entities} available"
        )
    noise_pool_size = spec.entities - needed + 4
    names = _name_pool(spec, rng)
    cursor = 0

    def take(n: int) -> list[str]:
        nonlocal cursor
        out = names[cursor : cursor + n]
        cursor += n
        return out

    noise_entities = take(noise_pool_size)
    noise_relations = [f"sits_near_{i}" for i in range(spec.relations - 1)]
    templates = TemplateTable(
        {LINK_RELATION: "{h} connects with {t}"}
        | {rel: "{h} sits near {t}" for rel in noise_relations}
    )
    kinds = np.array(["kg"] * n_kg + ["text"] * (spec.questions - n_kg))
    rng.shuffle(kinds)
    facts: set[Fact] = set()
    records: list[QuestionRecord] = []
    for qi in range(spec.questions):
        kind = kinds[qi]
        qe1, qe2 = take(2)
        answer_entities = take(spec.candidates)
        correct = int(rng.integers(spec.candidates))
        noise_rel = lambda: noise_relations[int(rng.integers(len(noise_relations)))]
        noise_ent = lambda: noise_entities[int(rng.integers(len(noise_entities)))]
        if kind == "kg":
            chain_nodes = take(spec.candidates)
            target = answer_entities[correct]
            for j, ent in enumerate(answer_entities):
                mid = chain_nodes[j] + ("_hub" if j == correct else "")
                facts.add(Fact(qe1, noise_rel(), mid))
                facts.add(Fact(mid, LINK_RELATION if j == correct else noise_rel(), ent))
            facts.add(Fact(qe2, LINK_RELATION, target))
            question = f"what connects with {qe1} and {qe2}"
            candidates = list(answer_entities)
        else:
            question = f"which choice is the marked one near {qe1} and {qe2}"
            candidates = []
            for j, ent in enumerate(answer_entities):
                if j == correct:
                    candidates.append(f"{ent} {_CORRECT_MARKER}")
                else:
                    marker = _WRONG_MARKERS[int(rng.integers(len(_WRONG_MARKERS)))]
                    candidates.append(f"{ent} {marker}")
        # Connector-chain distractors so the noise lands inside retrieved
        # subgraphs (a background entity adjacent to both question entities).
        slots = 3 if kind == "kg" else 2
        for _ in range(slots):
            if rng.random() < spec.distractor_rate:
                connector = noise_ent()
                facts.add(Fact(qe1, noise_rel(), connector))
                facts.add(Fact(connector, noise_rel(), qe2))
        if rng.random() < spec.distractor_rate:
            facts.add(Fact(noise_ent(), noise_rel(), noise_ent()))
        records.append(
            QuestionRecord(
                question=question,
                candidates=candidates,
                answer_index=correct,
                context="",
                meta={"kind": str(kind)},
            )
        )
    return SyntheticBenchmark(records=records, facts=sorted(facts), templates=templates)


def write_synthetic(spec: SyntheticSpec, out_dir: str | Path) -> dict[str, Path]:
    """Write kg.tsv, templates.tsv, and dataset.jsonl; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bench = generate_synthetic(spec)
    paths = {
        "kg": out / "kg.tsv",
        "templates": out / "templates.tsv",
        "dataset": out / "dataset.jsonl",
    }
    lines = [f"{f.head}\t{f.relation}\t{f.tail}" for f in bench.facts]
    paths["kg"].write_text("\n".join(lines) + "\n", encoding="utf-8")
    save_templates(bench.templates, paths["templates"])
    save_dataset(bench.records, paths["dataset"])
    return paths
