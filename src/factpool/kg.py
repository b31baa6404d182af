"""Knowledge-graph store: loading, entity linking, subgraph retrieval, perturbation.

A knowledge graph is a set of (head, relation, tail) facts over string entity
ids.  Ids are the canonical lowercase form of the entity's surface text with
spaces replaced by underscores; the surface form is recovered by the inverse
substitution.  Per-statement subgraphs consist of the entities linked in the
statement text plus all entities lying on paths of length <= 2 between linked
entities, closed under induced edges, and are completed with a virtual
question node tied to the linked entities.
"""

from __future__ import annotations

import gc
import re
from collections.abc import KeysView
from dataclasses import dataclass, field, replace
from itertools import groupby
from typing import NamedTuple

from factpool.util import canonical_json

VIRTUAL_NODE_ID = "question"
VIRTUAL_QUESTION_RELATION = "entity"
VIRTUAL_ANSWER_RELATION = "a_entity"

_TOKEN_RE = re.compile(r"[a-z0-9]+")


class KGFormatError(ValueError):
    """Raised for malformed or empty knowledge-graph files."""


def surface_to_id(surface: str) -> str:
    """Canonical entity id: lowercase, internal whitespace collapsed to '_'."""
    return "_".join(surface.lower().split())


def id_to_surface(entity_id: str) -> str:
    return entity_id.replace("_", " ")


def text_tokens(text: str) -> list[str]:
    """Lowercase alphanumeric tokens, punctuation discarded."""
    return _TOKEN_RE.findall(text.lower())


class Fact(NamedTuple):
    """Orders, compares and hashes as its (head, relation, tail) tuple."""

    head: str
    relation: str
    tail: str

    def key(self) -> str:
        return f"{self.head}\t{self.relation}\t{self.tail}"


@dataclass
class KnowledgeGraph:
    """A graph is its facts; relations, adjacency and entities derive from them.

    `facts` may be given as any iterable of facts; repeats collapse and it is
    held as the sorted tuple of the distinct facts.  Every derived field is
    the same for any order given.
    """

    facts: tuple[Fact, ...]
    relations: set[str] = field(init=False)
    adjacency: dict[str, tuple[Fact, ...]] = field(init=False)
    # Entities grouped by (plural-folded) first surface token, for linking.
    first_token_index: dict[str, tuple[str, ...]] = field(init=False)

    def __post_init__(self) -> None:
        # Sorted in the order given, not in a set's hash order: timsort is
        # linear on sorted input, and `load_kg` passes a file's facts in file
        # order, which is sorted for a generated KG.  Repeats are then
        # neighbours, so they collapse without a copy of the facts in a dict.
        self.facts = ordered = tuple(fact for fact, _ in groupby(sorted(self.facts)))
        adjacency: dict = {}
        for fact in ordered:
            head, _, tail = fact
            adjacency.setdefault(head, []).append(fact)
            if tail != head:
                adjacency.setdefault(tail, []).append(fact)
        # Each list becomes a tuple in place, here and in the index below, so
        # the lists are freed one by one and no second mapping is built.
        for entity, facts in adjacency.items():
            adjacency[entity] = tuple(facts)
        self.adjacency = adjacency
        self.relations = {fact.relation for fact in ordered}
        # Built with the other derived fields, not on first use: every graph
        # is linked against, so laziness would save nothing.  Each bucket is
        # sorted on its own, which costs less than sorting every entity.
        index: dict[str, list[str]] = {}
        for entity in self.adjacency:
            # The first surface token; '_' is not a token character.
            match = _TOKEN_RE.search(entity.lower())
            if match is None:
                continue
            first = match.group()
            if first == entity:  # a one-token id keys its bucket with its own string
                first = entity
            index.setdefault(first, []).append(entity)
            folded = _strip_plural(first)
            if folded != first:
                index.setdefault(folded, []).append(entity)
        for key, vals in index.items():
            index[key] = tuple(sorted(vals))
        self.first_token_index = index

    @property
    def entities(self) -> KeysView[str]:
        """Every head and tail: the adjacency's keys, as a set-like view."""
        return self.adjacency.keys()

    def neighbors(self, entity: str) -> set[str]:
        out = set()
        for fact in self.adjacency.get(entity, ()):
            out.add(fact.tail if fact.head == entity else fact.head)
        out.discard(entity)
        return out


class _SurfaceIds(dict):
    """surface_to_id, memoized per distinct field text."""

    def __missing__(self, surface: str) -> str:
        entity_id = surface_to_id(surface)
        if entity_id == surface:  # the field text is its id: one string, not an equal copy
            entity_id = surface
        self[surface] = entity_id
        return entity_id


def load_kg(path: str) -> KnowledgeGraph:
    """Load a KG from a UTF-8 TSV of `head\\trelation\\ttail` lines.

    Lines starting with '#' and blank lines are ignored.  Fields are
    normalized through surface_to_id, duplicates collapse to one fact.  The
    entity id of the virtual question node is reserved and rejected.

    The cyclic garbage collector is paused while the file is read and the
    graph built.  A graph holds no reference cycle, so a collection then could
    free nothing, yet the tens of thousands of objects made would start about
    a hundred, some of them scanning every live object.  The collector's
    prior state is restored on return or error.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return KnowledgeGraph(_read_facts(path))
    finally:
        if enabled:
            gc.enable()


def _read_facts(path: str) -> list[Fact]:
    """The file's facts in file order, repeats kept (`KnowledgeGraph` collapses them)."""
    ids = _SurfaceIds()
    facts: list[Fact] = []
    # One read, split on "\n" after the universal-newline translation that
    # line iteration also does (str.splitlines would break at \v, \f and more).
    # Only the loop holds the line list, so it is freed before the graph is built.
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh.read().split("\n"), start=1):
            stripped = line.lstrip()
            if not stripped or stripped[0] == "#":
                continue
            parts = line.split("\t")
            if len(parts) == 3:
                head, relation, tail = ids[parts[0]], ids[parts[1]], ids[parts[2]]
            else:
                head = relation = tail = ""
            # Malformed: not three fields, or a whitespace-only one (its id is empty).
            if not (head and relation and tail):
                raise KGFormatError(f"{path}: malformed line {lineno}: {line!r}")
            if head == VIRTUAL_NODE_ID or tail == VIRTUAL_NODE_ID:
                raise KGFormatError(
                    f"{path}: line {lineno}: entity id '{VIRTUAL_NODE_ID}' is reserved "
                    f"for the virtual question node: {line!r}"
                )
            facts.append(Fact(head, relation, tail))
    if not facts:
        raise KGFormatError(f"{path}: empty KG")
    return facts


@dataclass
class GroundedStatement:
    context: str
    question: str
    candidate: str
    question_entities: set[str]
    answer_entities: set[str]

    def __post_init__(self) -> None:
        overlap = self.question_entities & self.answer_entities
        if overlap:
            raise ValueError(f"question/answer entity sets overlap: {sorted(overlap)}")

    def statement_text(self) -> str:
        return " ".join(part for part in (self.context, self.question, self.candidate) if part)


def ground_statement(
    kg: KnowledgeGraph,
    context: str,
    question: str,
    candidate: str,
    question_entities: set[str] | None = None,
    answer_entities: set[str] | None = None,
) -> GroundedStatement:
    """Link entities for one (context, question, candidate) statement.

    Answer entities take precedence: anything linked in the candidate text is
    excluded from the question set so the two sets stay disjoint.
    """
    if answer_entities is None:
        answer_entities = link_entities(candidate, kg)
    else:
        answer_entities = set(answer_entities) & kg.entities
    if question_entities is None:
        question_entities = link_entities(f"{context} {question}", kg)
    else:
        question_entities = set(question_entities) & kg.entities
    return GroundedStatement(
        context=context,
        question=question,
        candidate=candidate,
        question_entities=question_entities - answer_entities,
        answer_entities=answer_entities,
    )


def _strip_plural(token: str) -> str:
    return token[:-1] if len(token) > 1 and token.endswith("s") else token


def _tokens_match(text_token: str, surface_token: str) -> bool:
    # Exact match with naive plural folding so "birds" links entity "bird".
    if text_token == surface_token:
        return True
    return _strip_plural(text_token) == surface_token or _strip_plural(surface_token) == text_token


def link_entities(statement_text: str, kg: KnowledgeGraph) -> set[str]:
    """Entities whose surface tokens appear contiguously in the text.

    Matching is by whole token, case-folded, with naive plural folding;
    overlapping and nested matches all link.
    """
    tokens = text_tokens(statement_text)
    if not tokens:
        return set()
    index = kg.first_token_index
    linked: set[str] = set()
    for start, tok in enumerate(tokens):
        candidates = set(index.get(tok, ()))
        candidates.update(index.get(_strip_plural(tok), ()))
        for entity in candidates:
            if entity in linked:
                continue
            surface_tokens = text_tokens(id_to_surface(entity))
            if start + len(surface_tokens) > len(tokens):
                continue
            if all(
                _tokens_match(tokens[start + j], surface_tokens[j])
                for j in range(len(surface_tokens))
            ):
                linked.add(entity)
    return linked


@dataclass
class Subgraph:
    nodes: set[str]
    edges: set[Fact]
    virtual_node: str | None = None

    def sorted_edges(self) -> list[Fact]:
        return sorted(self.edges)

    def payload(self) -> dict:
        """The JSON-ready form; each edge ends with "virtual" or "kg" by its head.

        `load_kg` rejects the virtual node id, so a KG fact never has it.
        """
        return {
            "nodes": sorted(self.nodes),
            "virtual_node": self.virtual_node,
            "edges": [
                [e.head, e.relation, e.tail, "virtual" if e.head == VIRTUAL_NODE_ID else "kg"]
                for e in sorted(self.edges)
            ],
        }

    def canonical(self) -> str:
        """Canonical JSON of `payload()`."""
        return canonical_json(self.payload())


def _relevance_score(entity: str, statement_tokens: set[str]) -> int:
    surface_tokens = set(text_tokens(id_to_surface(entity)))
    return sum(
        1
        for tok in statement_tokens
        if any(_tokens_match(tok, s) for s in surface_tokens)
    )


def retrieve_subgraph(kg: KnowledgeGraph, stmt: GroundedStatement, max_nodes: int) -> Subgraph:
    """Linked entities plus length-<=2 connectors, capped, edge-induced.

    When the node set exceeds max_nodes the most statement-relevant entities
    are kept: relevance is the count of distinct statement tokens matching the
    entity surface, ties broken by entity id.  The virtual question node is
    added separately and never counts against the cap.
    """
    if max_nodes < 1:
        raise ValueError("max_nodes must be >= 1")
    linked = (stmt.question_entities | stmt.answer_entities) & kg.entities
    candidates = set(linked)
    # A length-2 path u - m - v between distinct linked entities retains m.
    for entity in sorted(linked):
        for mid in kg.neighbors(entity):
            if mid in linked or mid in candidates:
                continue
            linked_neighbors = kg.neighbors(mid) & linked
            if len(linked_neighbors) >= 2:
                candidates.add(mid)
    if len(candidates) > max_nodes:
        statement_tokens = set(text_tokens(stmt.statement_text()))
        ranked = sorted(
            candidates,
            key=lambda ent: (-_relevance_score(ent, statement_tokens), ent),
        )
        candidates = set(ranked[:max_nodes])
    # Every induced edge is incident to a retained node, so the adjacency
    # lists of the retained nodes hold all of them.
    edges = {
        fact
        for node in candidates
        for fact in kg.adjacency.get(node, ())
        if fact.head in candidates and fact.tail in candidates
    }
    return Subgraph(nodes=candidates, edges=edges)


def add_virtual_question_node(sub: Subgraph, stmt: GroundedStatement) -> Subgraph:
    """Attach the virtual question node to retained question/answer entities."""
    if sub.virtual_node is not None:
        raise ValueError("virtual node already present")
    nodes = set(sub.nodes)
    nodes.add(VIRTUAL_NODE_ID)
    edges = set(sub.edges)
    for entity in sorted(stmt.question_entities):
        if entity in sub.nodes:
            edges.add(Fact(VIRTUAL_NODE_ID, VIRTUAL_QUESTION_RELATION, entity))
    for entity in sorted(stmt.answer_entities):
        if entity in sub.nodes:
            edges.add(Fact(VIRTUAL_NODE_ID, VIRTUAL_ANSWER_RELATION, entity))
    return Subgraph(nodes=nodes, edges=edges, virtual_node=VIRTUAL_NODE_ID)


def remove_answer_edges(sub: Subgraph, stmt: GroundedStatement) -> Subgraph:
    """Drop every edge incident to an answer entity; nodes stay (idempotent).

    Virtual a_entity edges count as incident and are removed as well.
    """
    answers = stmt.answer_entities
    kept = {e for e in sub.edges if e.head not in answers and e.tail not in answers}
    return replace(sub, nodes=set(sub.nodes), edges=kept)
