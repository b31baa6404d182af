"""Knowledge-graph fact pooling for multiple-choice QA.

Facts retrieved from a knowledge graph are verbalized, encoded into a shared
vector space, and aggregated by attention pooling into a small number of graph
vectors that are fused into a compact transformer classifier.  A generic
message-passing baseline and an answer-edge-removal robustness protocol are
included for controlled comparisons.
"""

from factpool.config import Config
from factpool.kg import (
    Fact,
    GroundedStatement,
    KnowledgeGraph,
    Subgraph,
    add_virtual_question_node,
    link_entities,
    load_kg,
    remove_answer_edges,
    retrieve_subgraph,
)
from factpool.verbalize import TemplateTable, verbalize

__all__ = [
    "Config",
    "Fact",
    "GroundedStatement",
    "KnowledgeGraph",
    "Subgraph",
    "TemplateTable",
    "add_virtual_question_node",
    "link_entities",
    "load_kg",
    "remove_answer_edges",
    "retrieve_subgraph",
    "verbalize",
]
