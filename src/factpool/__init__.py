"""Knowledge-graph fact pooling for multiple-choice QA.

Facts retrieved from a knowledge graph are verbalized, encoded into a shared
vector space, and aggregated by attention pooling into a small number of graph
vectors that are fused into a compact transformer classifier.  A generic
message-passing baseline and an answer-edge-removal robustness protocol are
included for controlled comparisons.
"""
