import gc
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from helpers import kg_from_facts
from oracles import induced_edges_oracle, load_kg_oracle, two_hop_nodes_oracle

from factpool import cli
from factpool.data import save_dataset
from factpool.harness_data import tiny_benchmark
from factpool.kg import (
    Fact,
    GroundedStatement,
    KGFormatError,
    KnowledgeGraph,
    add_virtual_question_node,
    ground_statement,
    id_to_surface,
    link_entities,
    load_kg,
    remove_answer_edges,
    retrieve_subgraph,
    surface_to_id,
)
from factpool.synthetic import SyntheticSpec, write_synthetic


def make_stmt(question_entities, answer_entities, text="q"):
    return GroundedStatement(
        context="",
        question=text,
        candidate="",
        question_entities=set(question_entities),
        answer_entities=set(answer_entities),
    )


# --- loading -----------------------------------------------------------------


def test_graph_built_in_memory_equals_the_loaded_one(tmp_path):
    built, _, _ = tiny_benchmark(seed=2, questions=6)
    path = tmp_path / "kg.tsv"
    path.write_text("".join(f"{f.key()}\n" for f in sorted(built.facts)), encoding="utf-8")
    loaded = load_kg(str(path))
    assert loaded.facts == built.facts
    assert loaded.entities == built.entities
    assert loaded.relations == built.relations
    assert loaded.adjacency == built.adjacency
    assert loaded.first_token_index == built.first_token_index


@pytest.fixture(scope="module")
def kg_layout_case(tmp_path_factory):
    """The tiny benchmark's KG lines, dataset and `retrieve` output from the
    KG written sorted, one fact per line."""
    kg, _, records = tiny_benchmark(seed=1, questions=8)
    root = tmp_path_factory.mktemp("kg_layout")
    save_dataset(records, root / "dataset.jsonl")
    lines = [f.key() for f in sorted(kg.facts)]
    (root / "kg.tsv").write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    reference = _retrieve_output(root / "dataset.jsonl", root / "kg.tsv")
    return root, lines, load_kg(str(root / "kg.tsv")), reference


def _retrieve_output(dataset, kg_path) -> bytes:
    """`retrieve`'s subgraphs, written beside `kg_path`."""
    out = kg_path.parent / "retrieved"
    assert cli.main(["retrieve", "--kg", str(kg_path), "--dataset",
                     str(dataset), "--out", str(out)]) == 0
    return (out / "subgraphs.jsonl").read_bytes()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_kg_file_layout_does_not_reach_the_graph_or_retrieval(
    kg_layout_case, tmp_path_factory, data
):
    # Line order, repeated facts, blank and comment lines and \r\n endings
    # leave the loaded graph, its adjacency tuple order and `retrieve` unchanged.
    root, lines, expected, reference = kg_layout_case
    extra = data.draw(st.lists(
        st.one_of(st.sampled_from(lines), st.sampled_from(["", "   ", "# note", "  #\tx"])),
        max_size=10,
    ))
    shuffled = data.draw(st.permutations(lines + extra))
    newline = data.draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(shuffled) + data.draw(st.sampled_from(["", newline]))
    # A fresh directory per example: replacing a file can cost a file-system flush.
    path = tmp_path_factory.mktemp("kg_layout_example") / "kg_layout.tsv"
    path.write_bytes(text.encode("utf-8"))
    kg = load_kg(str(path))
    assert kg.facts == expected.facts
    assert kg.entities == expected.entities
    assert kg.relations == expected.relations
    assert kg.adjacency == expected.adjacency
    assert kg.first_token_index == expected.first_token_index
    assert _retrieve_output(root / "dataset.jsonl", path) == reference


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["bird", "birds", "e1", "winter_storm", "!!", "s"]),
            st.sampled_from(["r1", "r2"]),
            st.sampled_from(["bird", "e2", "2x", "winter"]),
        ).map(lambda t: Fact(*t)),
        min_size=1,
        max_size=25,
    ),
    st.randoms(use_true_random=False),
)
def test_graph_is_the_same_for_any_fact_order(facts, rng):
    # Sorted, reversed and shuffled orders, repeats included, build one graph.
    shuffled = list(facts)
    rng.shuffle(shuffled)
    orders = [sorted(facts), sorted(facts, reverse=True), shuffled, facts + facts[:3]]
    graphs = [KnowledgeGraph(order) for order in orders]
    for kg in graphs:
        assert type(kg.facts) is tuple and kg.facts == tuple(sorted(set(facts)))
        assert kg.entities == graphs[0].entities
        assert kg.relations == graphs[0].relations
        assert kg.adjacency == graphs[0].adjacency
        assert kg.first_token_index == graphs[0].first_token_index
    assert graphs[0].entities == {f.head for f in facts} | {f.tail for f in facts}
    assert graphs[0].relations == {f.relation for f in facts}
    for entity, incident in graphs[0].adjacency.items():
        assert list(incident) == sorted(f for f in set(facts) if entity in (f.head, f.tail))


@pytest.mark.parametrize("enabled", [True, False])
def test_load_kg_restores_the_collector_state(tmp_path, enabled):
    good = tmp_path / "good.tsv"
    good.write_text("a\tr\tb\n", encoding="utf-8")
    bad = tmp_path / "bad.tsv"
    bad.write_text("a\tr\tb\nbroken line\n", encoding="utf-8")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        load_kg(str(good))
        assert gc.isenabled() is enabled
        with pytest.raises(KGFormatError):
            load_kg(str(bad))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_load_kg_starts_no_collection(tmp_path):
    # A graph holds no reference cycle, so loading one pauses the collector:
    # without the pause this ~18k-fact load starts about a hundred collections.
    paths = write_synthetic(SyntheticSpec(
        entities=20000, relations=6, questions=2000, candidates=4,
        distractor_rate=0.6, kg_fraction=0.6, seed=1,
    ), tmp_path)
    started = []

    def record(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(record)
    try:
        kg = load_kg(str(paths["kg"]))
    finally:
        gc.callbacks.remove(record)
    assert len(kg.facts) > 17000
    assert started == []


def test_load_kg_counts(toy_kg):
    assert len(toy_kg.entities) == 5
    assert len(toy_kg.relations) == 3
    assert len(toy_kg.facts) == 3


def test_load_kg_empty_file(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("# only a comment\n", encoding="utf-8")
    with pytest.raises(KGFormatError, match="empty KG"):
        load_kg(str(path))


def test_load_kg_duplicates_collapse(tmp_path):
    path = tmp_path / "dup.tsv"
    path.write_text("a\tr\tb\na\tr\tb\n", encoding="utf-8")
    assert len(load_kg(str(path)).facts) == 1


def test_load_kg_malformed_line_reports_number(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tr\tb\nbroken line\n", encoding="utf-8")
    with pytest.raises(KGFormatError, match="line 2"):
        load_kg(str(path))


def test_reserved_virtual_head_rejected(tmp_path):
    # the virtual node id is reserved as head or tail, under any relation
    path = tmp_path / "virt.tsv"
    for line in (
        "question\tcauses\tx",
        "ask\trelated_to\tquestion",
        "question\tentity\tx",
        "x\tcauses\tQuestion",
    ):
        path.write_text(f"a\tr\tb\n{line}\n", encoding="utf-8")
        with pytest.raises(KGFormatError, match="line 2.*reserved"):
            load_kg(str(path))


# Surface forms with mixed case, runs of spaces, plural and token-less forms;
# then the reserved id in any case and fields that are blank or whitespace only.
good_kg_fields = st.sampled_from([
    "bird", "Bird", "BIRDS", "birds", "bird  migration", " Bird Migration ",
    "bird_migration", "s", "ss", "e-1", "2x", "!!", "winter", "Winter\u00a0storm",
    "causes", "related to",
])
kg_fields = st.one_of(good_kg_fields, st.sampled_from(["Question", "question", "", "  ", "\u3000"]))
kg_lines = st.one_of(
    st.tuples(good_kg_fields, good_kg_fields, good_kg_fields).map("\t".join),
    st.sampled_from(["", "   ", "\t", "# a comment", "  # indented\tcomment", "#"]),
    st.tuples(kg_fields, kg_fields, kg_fields).map("\t".join),
    st.tuples(kg_fields, kg_fields).map("\t".join),
    st.tuples(kg_fields, kg_fields, kg_fields, kg_fields).map("\t".join),
)
kg_texts = st.tuples(
    st.lists(
        st.tuples(kg_lines, st.sampled_from(["\n", "\r\n"])).map("".join), max_size=25
    ),
    st.sampled_from(["", "bird\tcauses\twinter", "Bird\tcauses\tbirds\r"]),
).map(lambda parts: "".join(parts[0]) + parts[1])


def _fields(fact):
    return (fact.head, fact.relation, fact.tail)


@settings(max_examples=200, deadline=None)
@given(kg_texts)
def test_load_kg_matches_line_parser_oracle(tmp_path_factory, text):
    # A fresh directory per example: replacing a file can cost a file-system flush.
    path = tmp_path_factory.mktemp("oracle_kg") / "kg.tsv"
    path.write_bytes(text.encode("utf-8"))
    try:
        expected = load_kg_oracle(str(path))
    except KGFormatError as err:
        with pytest.raises(KGFormatError) as got:
            load_kg(str(path))
        assert type(got.value) is type(err) and str(got.value) == str(err)
        return
    entities, relations, facts, adjacency, first_token_index = expected
    kg = load_kg(str(path))
    assert kg.entities == entities
    assert kg.relations == relations
    assert all(type(f) is Fact for f in kg.facts)
    assert {_fields(f) for f in kg.facts} == facts
    assert {e: tuple(map(_fields, inc)) for e, inc in kg.adjacency.items()} == adjacency
    assert kg.first_token_index == first_token_index


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.text(max_size=3), st.text(max_size=3), st.text(max_size=3)), max_size=8))
def test_fact_ordering_hash_and_key(triples):
    facts = [Fact(*t) for t in triples]
    # A fact orders, hashes and keys as its (head, relation, tail) field tuple.
    assert [_fields(f) for f in sorted(facts)] == sorted(triples)
    for fact, (head, relation, tail) in zip(facts, triples):
        assert hash(fact) == hash((head, relation, tail))
        assert fact.key() == f"{head}\t{relation}\t{tail}"


def test_surface_id_round_trip():
    assert surface_to_id("Bird Migration") == "bird_migration"
    assert id_to_surface("bird_migration") == "bird migration"


# --- entity linking ----------------------------------------------------------


def test_link_entities_plural_folding():
    kg = kg_from_facts([("bird", "r", "winter"), ("migrate", "r", "winter")])
    linked = link_entities("When birds migrate south for the winter", kg)
    assert linked == {"bird", "winter", "migrate"}


def test_link_entities_substring_scan_oracle():
    # Independent check: every linked surface occurs inside the padded text.
    kg = kg_from_facts([("bird", "r", "winter"), ("migrate", "r", "winter")])
    text = "When birds migrate south for the winter"
    linked = link_entities(text, kg)
    hay = text.lower()
    for entity in linked:
        assert id_to_surface(entity).split()[0].rstrip("s") in hay


def test_link_entities_no_match():
    kg = kg_from_facts([("xyzzy", "r", "plugh")])
    assert link_entities("totally unrelated words", kg) == set()


def test_link_entities_overlapping_matches():
    kg = kg_from_facts([("bird_migration", "r", "x"), ("bird", "r", "x")])
    linked = link_entities("bird migration happens yearly", kg)
    assert {"bird", "bird_migration"} <= linked


def test_ground_statement_disjoint_sets(toy_kg):
    stmt = ground_statement(toy_kg, "", "do birds migrate in winter", "migrate")
    assert stmt.answer_entities == {"migrate"}
    assert "migrate" not in stmt.question_entities
    assert {"bird", "winter"} <= stmt.question_entities


def test_grounded_statement_rejects_an_entity_on_both_sides():
    with pytest.raises(ValueError, match=re.escape("entity sets overlap: ['bird', 'wing']")):
        make_stmt({"sky", "wing", "bird"}, {"wing", "bird", "nest"})


# --- retrieval ---------------------------------------------------------------


def test_retrieve_two_hop_connector():
    kg = kg_from_facts(
        [("winter", "causes", "bird_migration"), ("bird_migration", "related_to", "bird")]
    )
    sub = retrieve_subgraph(kg, make_stmt({"bird", "winter"}, set()), max_nodes=32)
    assert {"bird", "winter", "bird_migration"} <= sub.nodes


def test_retrieve_cap_tie_break():
    kg = kg_from_facts([("apple", "r", "pear")])
    sub = retrieve_subgraph(kg, make_stmt({"apple", "pear"}, set(), text="nothing"), max_nodes=1)
    # equal relevance (0 overlap), lexicographic id decides
    assert sub.nodes == {"apple"}


def test_default_cap_is_32():
    from factpool.config import Config

    assert Config().max_nodes == 32


def test_retrieve_edge_induced_closure():
    facts = [
        ("a", "r", "b"),
        ("b", "r", "c"),
        ("c", "r", "d"),  # d outside the two-hop set of {a, c}
    ]
    kg = kg_from_facts(facts)
    sub = retrieve_subgraph(kg, make_stmt({"a", "c"}, set()), max_nodes=32)
    expected_edges = {f for f in kg.facts if f.head in sub.nodes and f.tail in sub.nodes}
    assert sub.edges == expected_edges


def test_retrieve_no_linked_entities_gives_virtual_only():
    kg = kg_from_facts([("a", "r", "b")])
    stmt = make_stmt(set(), set())
    sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, 8), stmt)
    assert sub.nodes == {"question"}
    assert sub.edges == set()


# --- virtual node ------------------------------------------------------------


def test_add_virtual_edges():
    kg = kg_from_facts([("bird", "r", "children")])
    stmt = make_stmt({"bird"}, {"children"})
    retrieved = retrieve_subgraph(kg, stmt, 8)
    sub = add_virtual_question_node(retrieved, stmt)
    assert Fact("question", "entity", "bird") in sub.edges
    assert Fact("question", "a_entity", "children") in sub.edges
    assert retrieved.payload()["virtual_node"] is None
    assert sub.payload()["virtual_node"] == "question"
    edges = json.loads(sub.canonical())["edges"]
    assert ["question", "entity", "bird", "virtual"] in edges
    assert ["bird", "r", "children", "kg"] in edges


def test_add_virtual_twice_errors():
    kg = kg_from_facts([("bird", "r", "children")])
    stmt = make_stmt({"bird"}, set())
    sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, 8), stmt)
    with pytest.raises(ValueError, match="virtual node already present"):
        add_virtual_question_node(sub, stmt)


def test_add_virtual_no_answer_entities():
    kg = kg_from_facts([("bird", "r", "worm")])
    stmt = make_stmt({"bird"}, set())
    sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, 8), stmt)
    edges = json.loads(sub.canonical())["edges"]
    relations = {rel for _, rel, _, origin in edges if origin == "virtual"}
    assert relations == {"entity"}


# --- perturbation ------------------------------------------------------------


def test_remove_answer_edges_example():
    kg = kg_from_facts([("bird", "related_to", "children")])
    stmt = make_stmt({"bird"}, {"children"})
    sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, 8), stmt)
    assert Fact("question", "a_entity", "children") in sub.edges
    pruned = remove_answer_edges(sub, stmt)
    assert all("children" not in (e.head, e.tail) for e in pruned.edges)
    assert "children" in pruned.nodes  # nodes are retained


def test_remove_answer_edges_noop_without_answers():
    kg = kg_from_facts([("a", "r", "b")])
    stmt = make_stmt({"a", "b"}, set())
    sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, 8), stmt)
    assert remove_answer_edges(sub, stmt).edges == sub.edges


def test_remove_answer_edges_idempotent():
    kg = kg_from_facts([("a", "r", "b"), ("b", "r", "c")])
    stmt = make_stmt({"a"}, {"b"})
    sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, 8), stmt)
    once = remove_answer_edges(sub, stmt)
    twice = remove_answer_edges(once, stmt)
    assert once.edges == twice.edges and once.nodes == twice.nodes


# --- property tests ----------------------------------------------------------


entity_ids = st.sampled_from([f"e{i}" for i in range(12)])
fact_triples = st.tuples(entity_ids, st.sampled_from(["r1", "r2"]), entity_ids)
graphs = st.sets(fact_triples, min_size=1, max_size=30)


@settings(max_examples=60, deadline=None)
@given(graphs, st.sets(entity_ids, min_size=1, max_size=4), st.integers(1, 12))
def test_retrieval_determinism_and_cap(facts, linked, max_nodes):
    kg = kg_from_facts(facts)
    linked = linked & kg.entities
    stmt = make_stmt(linked, set())
    a = retrieve_subgraph(kg, stmt, max_nodes)
    b = retrieve_subgraph(kg, stmt, max_nodes)
    assert a.canonical() == b.canonical()
    assert len(a.nodes) <= max_nodes


@settings(max_examples=60, deadline=None)
@given(graphs, st.sets(entity_ids, min_size=1, max_size=4))
def test_two_hop_soundness_vs_bfs_oracle(facts, linked):
    kg = kg_from_facts(facts)
    linked = linked & kg.entities
    stmt = make_stmt(linked, set())
    sub = retrieve_subgraph(kg, stmt, max_nodes=10_000)
    expected = two_hop_nodes_oracle(
        [(f.head, f.relation, f.tail) for f in kg.facts], linked
    )
    # oracle counts all graph nodes; retrieval keeps linked plus connectors
    assert sub.nodes == (expected & kg.entities | linked)


@settings(max_examples=60, deadline=None)
@given(graphs, st.sets(entity_ids, min_size=1, max_size=3), st.sets(entity_ids, min_size=1, max_size=3))
def test_perturbation_completeness(facts, q_entities, a_entities):
    kg = kg_from_facts(facts)
    a_entities = a_entities & kg.entities
    q_entities = (q_entities & kg.entities) - a_entities
    stmt = make_stmt(q_entities, a_entities)
    sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, 32), stmt)
    pruned = remove_answer_edges(sub, stmt)
    for edge in pruned.edges:
        assert edge.head not in a_entities and edge.tail not in a_entities
    assert pruned.nodes == sub.nodes


self_loops = st.sets(entity_ids, min_size=1, max_size=4).map(
    lambda ents: {(e, "r1", e) for e in ents}
)


@pytest.mark.parametrize("capped", [True, False])
@settings(max_examples=60, deadline=None)
@given(
    graphs,
    self_loops,
    st.sets(entity_ids, min_size=1, max_size=3),
    st.sets(entity_ids, min_size=1, max_size=3),
    st.integers(1, 6),
)
def test_induced_edges_match_full_scan_oracle(capped, facts, loops, q_entities, a_entities, cap):
    kg = kg_from_facts(facts | loops)
    a_entities = a_entities & kg.entities
    q_entities = (q_entities & kg.entities) - a_entities
    sub = retrieve_subgraph(
        kg, make_stmt(q_entities, a_entities), max_nodes=cap if capped else 10_000
    )
    assert sub.edges == induced_edges_oracle(kg.facts, sub.nodes)


def test_adjacency_lists_in_fact_order():
    kg = kg_from_facts([("b", "r", "a"), ("a", "r", "a"), ("a", "q", "c"), ("c", "r", "a")])
    for entity, incident in kg.adjacency.items():
        assert list(incident) == sorted(f for f in kg.facts if entity in (f.head, f.tail))
