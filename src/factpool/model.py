"""QA model: statement pipeline, fused forward, scoring, training, gradcheck.

Three model kinds share one transformer trunk and scoring skeleton:

  * "pooled": per-candidate subgraph edges are encoded and pooled into K+1
    graph vectors; vector 0 initializes the graph token, vectors 1..K are
    added to the graph token's hidden state immediately before layers
    L-1 .. L-K (late fusion).  Candidate score = f_q(question state) +
    f_g(graph part), where the graph part is the raw pooled vector when K=0
    and the graph token's final state when K>0.
  * "lm": the same skeleton with every graph vector forced to zero.
  * "gnn": graph vectors zero; a message-passing module over the subgraph,
    seeded with the question state at the virtual node, provides the graph
    score through its own readout head.

Candidate scores are normalized across a question's candidates by softmax
and trained with cross entropy.  Everything is deterministic for a fixed
seed; gradients are exact reverse-mode and checked against central finite
differences by `gradient_check`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from factpool.config import Config
from factpool.data import QuestionRecord
from factpool.encoders import FileBackedEncoder, HashBagEncoder, ToyTrunkEncoder, encode_subgraphs
from factpool.gnn import (
    GNNConfig,
    gnn_backward_arrays,
    gnn_forward_arrays,
    init_gnn_params,
    subgraph_arrays,
)
from factpool.kg import (
    VIRTUAL_ANSWER_RELATION,
    VIRTUAL_NODE_ID,
    VIRTUAL_QUESTION_RELATION,
    Fact,
    GroundedStatement,
    KGFormatError,
    KnowledgeGraph,
    Subgraph,
    add_virtual_question_node,
    ground_statement,
    id_to_surface,
    link_entities,
    remove_answer_edges,
    retrieve_subgraph,
    text_tokens,
)
from factpool.optim import RAdam
from factpool.pooling import init_pooling_head, pool_backward_arrays, pool_forward
from factpool.tokenizer import PAD_ID, Tokenizer, tokenize_statement
from factpool.transformer import (
    NoBackwardCacheError,
    init_scalar_head,
    init_trunk_params,
    scalar_head_backward,
    scalar_head_forward,
    trunk_forward,
    trunk_backward,
)
from factpool.util import derive_seed
from factpool.verbalize import TemplateTable, verbalize
from factpool.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

MODEL_KINDS = ("pooled", "gnn", "lm")
WITH_ANSWERS = "with_answers"
WITHOUT_ANSWERS = "without_answers"
CONDITIONS = (WITH_ANSWERS, WITHOUT_ANSWERS)


@dataclass
class Model:
    cfg: Config
    kind: str
    params: dict[str, np.ndarray]
    relations: list[str]  # relation table order shared by GNN and metadata


def relation_table(kg: KnowledgeGraph) -> list[str]:
    return sorted(kg.relations | {VIRTUAL_QUESTION_RELATION, VIRTUAL_ANSWER_RELATION})


class _NoDraws:
    """Stands in for the generator where only parameter names and shapes are
    wanted: each draw returns zeros of the requested size."""

    def standard_normal(self, size):
        return np.zeros(size)

    def uniform(self, low, high, size):
        return np.zeros(size)


def create_model(cfg: Config, kind: str, relations: list[str]) -> Model:
    """Seeded parameter construction; the draw order is fixed per kind."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"model kind must be one of {MODEL_KINDS}")
    params = _init_params(cfg, kind, len(relations), _init_rng(cfg, kind))
    return Model(cfg=cfg, kind=kind, params=_cast(cfg, params), relations=list(relations))


def _init_rng(cfg: Config, kind: str) -> np.random.Generator:
    """The generator a `kind` model's initial parameters are drawn from."""
    return np.random.default_rng(derive_seed(cfg.seed, "init", kind))


def _cast(cfg: Config, params: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    # Drawn in float64 and cast once, so every precision draws the same values.
    return {name: t.astype(cfg.dtype, copy=False) for name, t in params.items()}


def _init_params(cfg: Config, kind: str, num_relations: int, rng) -> dict[str, np.ndarray]:
    """Every float64 parameter of a `kind` model, drawn from `rng` in a fixed order."""
    params = init_trunk_params(cfg.L, cfg.d, cfg.vocab_size, cfg.max_tokens, rng)
    params.update(init_scalar_head("fq", cfg.d, rng))
    if kind in ("pooled", "lm"):
        params.update(init_scalar_head("fg", cfg.d, rng))
    if kind == "pooled":
        for k in range(cfg.num_pooling_heads()):
            params.update(init_pooling_head(f"pool{k}", cfg.d, rng))
    if kind == "gnn":
        params.update(init_gnn_params(cfg.d, num_relations, rng))
    return params


def build_encoder(model: Model, cache_path: str | None = None):
    """`make_encoder` for the model's config and kind."""
    return make_encoder(model.cfg, model.kind, cache_path)


def make_encoder(cfg: Config, kind: str, cache_path: str | None = None):
    """The frozen fact encoder of a `kind` model of `cfg`, made without the model."""
    if cfg.encoder_kind == "hash-bag":
        return HashBagEncoder(cfg.d, derive_seed(cfg.seed, "encoder"))
    if cfg.encoder_kind == "shared-toy-encoder":
        # Re-draws the embedder and trunk as `create_model` first drew them: a
        # pre-fine-tuning snapshot that training never moves.
        rng = _init_rng(cfg, kind)
        return ToyTrunkEncoder(
            _cast(cfg, init_trunk_params(cfg.L, cfg.d, cfg.vocab_size, cfg.max_tokens, rng)),
            cfg.L,
            cfg.heads,
            Tokenizer(cfg.vocab_size),
            cfg.token_pooling,
            max_tokens=cfg.max_tokens,
        )
    if cfg.encoder_kind == "external-file":
        if cache_path is None:
            raise ValueError("external-file encoder needs a cache path")
        encoder = FileBackedEncoder(cache_path)
        if encoder.dim != cfg.d:
            raise ValueError(
                f"{cache_path}: embedding cache width {encoder.dim} != model width d={cfg.d}"
            )
        return encoder
    raise ValueError(f"unknown encoder kind {cfg.encoder_kind!r}")


# --- statement preparation ----------------------------------------------------


@dataclass
class PreparedSet:
    """What the candidates of one prepared set share: each distinct fact
    once, in first-seen canonical edge order, and one table row per fact or
    entity.  A pooled set holds each fact's text and edge vector; a gnn set
    holds one table of node states and each fact's node and relation rows.
    A fact or an entity is held once however many candidates and conditions
    read it."""

    facts: list[Fact]  # the row order of edge_table and fact_table
    texts: list[str]  # pooled: verbalized facts, aligned with facts
    edge_table: np.ndarray  # pooled: [F, d]
    node_table: np.ndarray | None = None  # gnn: [N_set, d]; row 0 is the virtual placeholder
    fact_table: np.ndarray | None = None  # gnn: [F, 3] int64 (head, tail) node rows, relation row


class NoFactVectorsError(LookupError):
    """Fact texts or edge vectors were read from a gnn set, which holds neither."""


@dataclass
class PreparedCandidate:
    """One statement's model input: token ids and rows of its prepared set."""

    ids: np.ndarray  # [T] token ids
    shared: PreparedSet
    edge_rows: np.ndarray  # [E] int64 shared rows in canonical edge order; E may be 0
    node_rows: np.ndarray | None = None  # gnn: [N] int64 node_table rows in sorted-id order

    @property
    def facts(self) -> list[Fact]:
        return [self.shared.facts[row] for row in self.edge_rows]

    @property
    def fact_texts(self) -> list[str]:
        """Pooled: the verbalized facts."""
        return [self.shared.texts[row] for row in self._vector_rows()]

    @property
    def edge_matrix(self) -> np.ndarray:
        """Pooled: the [E, d] edge vectors, a new array."""
        return self.shared.edge_table[self._vector_rows()]

    def _vector_rows(self) -> np.ndarray:
        if self.node_rows is not None:
            raise NoFactVectorsError(
                "a gnn prepared set holds no fact texts or edge vectors: "
                "its facts index the node table through fact_table"
            )
        return self.edge_rows


@dataclass
class PreparedQuestion:
    candidates: list[PreparedCandidate]
    answer_index: int


Grounding = list[list[tuple[GroundedStatement, Subgraph]]]


def ground_records(
    kg: KnowledgeGraph, records: list[QuestionRecord], max_nodes: int
) -> Grounding:
    """Per record: each candidate's linked statement and its intact subgraph
    with the virtual question node.  Pre-linked entity sets in a record take
    precedence over text linking.

    A grounding depends on the KG, the records and `max_nodes` only, so one
    grounding serves every model, seed and condition prepared from it.
    """
    grounding = []
    for record in records:
        # The question text is the same for every candidate: link it once.
        question_entities = record.question_entities
        if question_entities is None:
            question_entities = link_entities(f"{record.context} {record.question}", kg)
        answers = record.answer_entities or [None] * len(record.candidates)
        statements = []
        for text, linked in zip(record.candidates, answers):
            stmt = ground_statement(
                kg, record.context, record.question, text, question_entities, linked
            )
            sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, max_nodes), stmt)
            statements.append((stmt, sub))
        grounding.append(statements)
    return grounding


def gnn_entities(grounding: Grounding) -> list[str]:
    """The grounding's entity nodes, sorted: a gnn encodes each one's surface
    as its node state.  KGFormatError names one whose surface has no word."""
    nodes = {node for statements in grounding for _, sub in statements for node in sub.nodes}
    entities = sorted(nodes - {VIRTUAL_NODE_ID})
    for entity in entities:
        if not text_tokens(id_to_surface(entity)):
            raise KGFormatError(f"entity {entity!r} has no word token for a gnn node state")
    return entities


def check_fact_texts(grounding: Grounding, templates: TemplateTable) -> None:
    """KGFormatError names the templates file and the first grounding fact
    whose verbalized text has no word token for a computing encoder.  Only a
    fact between two entities with no word token can verbalize to one."""
    nodes = {node for statements in grounding for _, sub in statements for node in sub.nodes}
    wordless = {node for node in nodes if not text_tokens(id_to_surface(node))}
    if not wordless:
        return
    facts = {fact for statements in grounding for _, sub in statements for fact in sub.edges}
    for fact in sorted(facts):
        if fact.head in wordless and fact.tail in wordless:
            text = verbalize(fact, templates)
            if not text_tokens(text):
                where = f"{templates.path}: " if templates.path else ""
                raise KGFormatError(
                    f"{where}fact {fact.key()!r} verbalizes to {text!r}, "
                    "which has no word token for a pooled edge vector"
                )


def apply_condition(sub: Subgraph, stmt: GroundedStatement, condition: str) -> Subgraph:
    """The subgraph as seen under `condition`, from the intact subgraph."""
    if condition == WITHOUT_ANSWERS:
        return remove_answer_edges(sub, stmt)
    if condition != WITH_ANSWERS:
        raise ValueError(f"condition must be one of {CONDITIONS}")
    return sub


def prepare_dataset(
    model: Model,
    kg: KnowledgeGraph,
    templates: TemplateTable,
    encoder,
    records: list[QuestionRecord],
    condition: str = WITH_ANSWERS,
) -> list[PreparedQuestion]:
    grounding = ground_records(kg, records, model.cfg.max_nodes)
    prepared = prepare_conditions(model, templates, encoder, records, grounding, (condition,))
    return prepared[condition]


def prepare_conditions(
    model: Model,
    templates: TemplateTable,
    encoder,
    records: list[QuestionRecord],
    grounding: Grounding,
    conditions: tuple[str, ...] = CONDITIONS,
) -> dict[str, list[PreparedQuestion]]:
    """`records` prepared under each of `conditions` from their grounding,
    `ground_records(kg, records, model.cfg.max_nodes)`.

    They form one `PreparedSet`, which every returned candidate indexes.  A
    pooled model verbalizes every distinct fact once, and one
    `encode_subgraphs` call returns the facts, their texts and the edge
    table, rows in first-seen fact order.  A gnn model lists the facts in the
    same order, with their node and relation rows, and one `encode_texts`
    call gives the node table's entity rows (after the virtual placeholder,
    the sorted entities).  An lm model reads no fact.
    """
    if model.kind == "gnn" and not hasattr(encoder, "encode_texts"):
        raise ValueError(
            "gnn models need a text-capable encoder for entity node states; "
            "the external-file encoder only serves cached facts"
        )
    subgraphs = [sub for statements in grounding for _, sub in statements]
    facts, texts, edge_table = [], [], np.zeros((0, model.cfg.d))
    if model.kind == "pooled":
        if hasattr(encoder, "encode_texts"):  # the external-file encoder reads facts by key
            check_fact_texts(grounding, templates)
        facts, texts, edge_table = encode_subgraphs(subgraphs, templates, encoder)
    shared = PreparedSet(facts, texts, edge_table)
    node_row = {}
    if model.kind == "gnn":
        entities = gnn_entities(grounding)
        surfaces = [id_to_surface(entity) for entity in entities]
        # Row 0 is a placeholder for the question state.
        node_table = np.concatenate([np.zeros((1, model.cfg.d)), encoder.encode_texts(surfaces)])
        shared.node_table = node_table.astype(model.cfg.dtype, copy=False)
        node_row = {node: i for i, node in enumerate([VIRTUAL_NODE_ID, *entities])}
    fact_row = {fact: i for i, fact in enumerate(facts)}
    questions = [
        prepare_question(model, record, statements, shared, fact_row, node_row, conditions)
        for record, statements in zip(records, grounding, strict=True)
    ]
    if model.kind == "gnn":
        # `prepare_question` listed each fact where it first saw it.
        shared.facts = list(fact_row)
        relation_row = {rel: i for i, rel in enumerate(model.relations)}
        ends = ((node_row[f.head], node_row[f.tail], relation_row[f.relation]) for f in fact_row)
        shared.fact_table = np.fromiter(ends, np.dtype((np.int64, 3)), len(fact_row))
    return {condition: [q[condition] for q in questions] for condition in conditions}


def prepare_question(
    model: Model,
    record: QuestionRecord,
    statements: list[tuple[GroundedStatement, Subgraph]],
    shared: PreparedSet,
    fact_row: dict[Fact, int],
    node_row: dict[str, int],
    conditions: tuple[str, ...],
) -> dict[str, PreparedQuestion]:
    """One record under each condition, from its statements' intact subgraphs.

    `fact_row` and `node_row` give each fact's and node's row of `shared`; a
    fact `fact_row` lacks is given the next row.  A without_answers
    candidate is the intact one with the answer-incident edges' rows
    dropped; its nodes, and so its token ids and node rows, stay.  A
    candidate that loses no edge, an lm candidate always, is the intact
    candidate itself.
    """
    cfg = model.cfg
    tokenizer = Tokenizer(cfg.vocab_size)
    prepared = {c: PreparedQuestion([], record.answer_index) for c in conditions}
    for stmt, sub in statements:
        facts = [] if model.kind == "lm" else sub.sorted_edges()
        ids = tokenize_statement(
            stmt.context, stmt.question, stmt.candidate, tokenizer, cfg.max_tokens
        )
        rows = (fact_row.setdefault(fact, len(fact_row)) for fact in facts)
        intact = PreparedCandidate(
            ids=np.asarray(ids, dtype=np.int64),
            shared=shared,
            edge_rows=np.fromiter(rows, np.int64, len(facts)),
        )
        if model.kind == "gnn":
            nodes = sorted(sub.nodes)
            intact.node_rows = np.fromiter((node_row[n] for n in nodes), np.int64, len(nodes))
        for condition, question in prepared.items():
            kept = apply_condition(sub, stmt, condition).edges
            keep = np.fromiter((fact in kept for fact in facts), bool, len(facts))
            cand = intact if keep.all() else replace(intact, edge_rows=intact.edge_rows[keep])
            question.candidates.append(cand)
    return prepared


# --- batched forward / backward ----------------------------------------------


class DivergenceError(RuntimeError):
    """Non-finite scores or loss: the model or its inputs have diverged."""


@dataclass
class BatchResult:
    loss: float
    scores: np.ndarray  # [num candidates total]
    slices: list[slice]  # per question, its candidates' rows of `scores`
    # Per pooling head, the [E] weights over the batch's edges in candidate
    # order; a candidate's are the next len(edge_rows) of them.  gnn and lm: [].
    pool_weights: list[np.ndarray]
    aggregations: int  # instrumented count of pooling/GNN aggregation events
    _caches: dict = field(default_factory=dict, repr=False)


def _flatten(questions: list[PreparedQuestion]):
    flat: list[PreparedCandidate] = []
    slices = []
    for q in questions:
        start = len(flat)
        flat.extend(q.candidates)
        slices.append(slice(start, len(flat)))
    t_max = max(len(c.ids) for c in flat)
    ids = np.full((len(flat), t_max), PAD_ID, dtype=np.int64)
    mask = np.zeros((len(flat), t_max), dtype=bool)
    for i, c in enumerate(flat):
        ids[i, : len(c.ids)] = c.ids
        mask[i, : len(c.ids)] = True
    return flat, slices, ids, mask


def _injection_layer(L: int, k: int) -> int:
    # Fusion vector k is added immediately before layer L-k; index 0 means
    # the input state (only reachable when K = L).
    return L - k


def candidate_log_probabilities(scores: np.ndarray) -> np.ndarray:
    """Log of softmax across one question's candidate scores."""
    z = scores - scores.max()
    return z - np.log(np.exp(z).sum())


def batch_forward(
    model: Model, questions: list[PreparedQuestion], backward_cache: bool = False
) -> BatchResult:
    """Candidate scores, the mean cross-entropy loss and the per-head pooling
    weights of a batch of questions.  It makes no prediction: a question's is
    the argmax of its `scores[slices[i]]`.

    backward_cache: keep what `batch_backward` reads (the trunk's per-layer
    activations, the pooling, GNN and head caches and the score gradient).
    Without it the result carries only the trunk's token ids and injections,
    and its final states at the SCORED_POSITIONS (0: the graph token, 1: the
    question state).
    """
    flat, slices, ids, mask = _flatten(questions)
    g, pool_weights, pool_caches = _graph_vectors(model, flat, backward_cache)
    states, trunk_cache = _run_trunk(model, ids, mask, g, backward_cache)
    scores, aggregations, head_caches = _score(
        model, flat, slices, g, states[:, 1, :], states[:, 0, :], backward_cache
    )
    loss = 0.0
    d_scores = np.zeros(len(flat))
    nq = len(questions)
    for q, sl in zip(questions, slices):
        log_probs = candidate_log_probabilities(scores[sl])
        loss += -log_probs[q.answer_index] / nq
        if backward_cache:
            d = np.exp(log_probs)
            d[q.answer_index] -= 1.0
            d_scores[sl] = d / nq
    caches = {"trunk_cache": trunk_cache, "graph_states_final": states}
    if backward_cache:
        caches.update(head_caches, pool_caches=pool_caches, d_scores=d_scores)
    return BatchResult(
        loss=float(loss),
        scores=scores,
        slices=slices,
        pool_weights=pool_weights,
        aggregations=aggregations,
        _caches=caches,
    )


def _graph_vectors(model: Model, flat: list[PreparedCandidate], backward_cache: bool = False):
    """Pooling stage: ([heads, B, d] graph vectors, per-head [E] pool weights,
    pooling caches).  A gnn or lm model has one head of zeros and no weights."""
    cfg = model.cfg
    bs = len(flat)
    if model.kind != "pooled":
        return np.zeros((1, bs, cfg.d)), [], []
    counts = [len(cand.edge_rows) for cand in flat]
    edges = np.concatenate([cand.edge_matrix for cand in flat])
    heads = cfg.num_pooling_heads()
    g = np.zeros((heads, bs, cfg.d))
    head_weights = []
    pool_caches = []
    for k in range(heads):
        g[k], weights, cache = pool_forward(model.params, edges, counts, f"pool{k}")
        head_weights.append(weights)
        # An edgeless batch keeps no pooling cache, so its pool* parameters
        # get no gradient: RAdam would move them on a zero gradient.
        if backward_cache and edges.shape[0]:
            pool_caches.append(cache)
    return g, head_weights, pool_caches


# Scoring reads the final states of the graph token (position 0) and the
# question state (position 1) only, so the trunk's last layer computes those.
SCORED_POSITIONS = 2


def _run_trunk(model: Model, ids, mask, g: np.ndarray, backward_cache: bool = False):
    """Trunk stage: graph vector 0 initializes the graph token and vector k
    is injected before layer L-k.  Returns ([B, SCORED_POSITIONS, d] final
    states, trunk cache)."""
    cfg = model.cfg
    injections = {_injection_layer(cfg.L, k): g[k] for k in range(1, len(g))}
    return trunk_forward(
        model.params, cfg.L, cfg.heads, ids, mask, g[0], injections, backward_cache,
        read_positions=SCORED_POSITIONS,
    )


def _score(
    model: Model, flat, slices, g: np.ndarray, q_final, graph_final, backward_cache: bool = False
):
    """Scoring stage: (candidate scores, aggregation count, head caches).

    DivergenceError names the first candidate with a non-finite score.
    """
    cfg = model.cfg
    params = model.params
    fq_scores, fq_cache = scalar_head_forward(params, "fq", q_final)
    caches = {"fq_cache": fq_cache}
    if model.kind == "gnn":
        arrays, virtual = subgraph_arrays(
            [(cand.node_rows, cand.shared.fact_table[cand.edge_rows]) for cand in flat]
        )
        node_init = np.concatenate([cand.shared.node_table[cand.node_rows] for cand in flat])
        node_init[virtual] = q_final
        final, gnn_cache, aggregations = gnn_forward_arrays(
            params, GNNConfig(cfg.gnn_layers), arrays, node_init, backward_cache
        )
        graph_scores, fg_cache = scalar_head_forward(params, "gnn.score", final[virtual])
        caches.update(gnn_cache=gnn_cache, gnn_virtual=virtual)
    else:
        aggregations = g.shape[0] * g.shape[1] if model.kind == "pooled" else 0
        gamma = g[0] if cfg.K == 0 else graph_final
        graph_scores, fg_cache = scalar_head_forward(params, "fg", gamma)
    caches["fg_cache"] = fg_cache
    scores = fq_scores + graph_scores
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        i = int(bad[0])
        q = next(n for n, sl in enumerate(slices) if sl.start <= i < sl.stop)
        raise DivergenceError(
            f"non-finite score {scores[i]} for candidate {i - slices[q].start} "
            f"of question {q} in the batch (kind={model.kind})"
        )
    return scores, aggregations, caches


def batch_backward(model: Model, result: BatchResult) -> dict[str, np.ndarray]:
    cfg = model.cfg
    params = model.params
    caches = result._caches
    if "d_scores" not in caches:
        raise NoBackwardCacheError(
            "batch_forward ran without a backward cache; call it with backward_cache=True"
        )
    d_scores = caches["d_scores"]
    # Each module's parameter names (fq.*, fg.* or gnn.*, the trunk's, pool{k}.*)
    # are disjoint from every other's, so no gradient is ever summed here.
    grads, d_q_final = scalar_head_backward(params, "fq", caches["fq_cache"], d_scores)
    d_states = np.zeros_like(caches["graph_states_final"])
    d_g0_direct = None
    if model.kind == "gnn":
        head_grads, d_gamma = scalar_head_backward(
            params, "gnn.score", caches["fg_cache"], d_scores
        )
        grads.update(head_grads)
        gnn_cache, virtual = caches["gnn_cache"], caches["gnn_virtual"]
        arrays, _ = gnn_cache
        d_final = np.zeros((len(arrays.node_rows), cfg.d), cfg.dtype)
        d_final[virtual] = d_gamma
        gnn_grads, d_init = gnn_backward_arrays(
            params, GNNConfig(cfg.gnn_layers), gnn_cache, d_final
        )
        grads.update(gnn_grads)
        d_q_final += d_init[virtual]
    else:
        head_grads, d_gamma = scalar_head_backward(params, "fg", caches["fg_cache"], d_scores)
        grads.update(head_grads)
        if cfg.K == 0:
            d_g0_direct = d_gamma
        else:
            d_states[:, 0, :] += d_gamma
    d_states[:, 1, :] += d_q_final
    trunk_grads, d_graph_init, d_injections = trunk_backward(
        params, cfg.L, caches["trunk_cache"], d_states
    )
    grads.update(trunk_grads)
    if model.kind == "pooled":
        d_g = np.zeros((cfg.num_pooling_heads(), len(d_scores), cfg.d))
        d_g[0] = d_graph_init
        if d_g0_direct is not None:
            d_g[0] += d_g0_direct
        for k in range(1, len(d_g)):
            d_g[k] = d_injections[_injection_layer(cfg.L, k)]
        for k, cache in enumerate(caches["pool_caches"]):
            head_grads, _d_edges = pool_backward_arrays(params, cache, d_g[k], f"pool{k}")
            grads.update(head_grads)
    return grads


def loss_and_grads(model: Model, questions: list[PreparedQuestion]):
    """(loss, gradients) of one batch.  The forward's activations die on return."""
    result = batch_forward(model, questions, backward_cache=True)
    return result.loss, batch_backward(model, result)


EVAL_CHUNK = 64  # questions per evaluation batch
# Sequences per trunk forward in evaluation.  A block of 32 at T=40, d=64
# keeps each FFN activation of layers 1..L-1 near 2.6 MB (f64; the last
# layer's, on the SCORED_POSITIONS rows, ~0.13 MB); whole evaluation batches
# of 256 sequences ran the element-wise passes ~3x slower per element and
# set the process's peak memory.
TRUNK_BLOCK = 32


def evaluate(model: Model, questions: list[PreparedQuestion]) -> float:
    """Accuracy in percent over prepared questions."""
    return evaluate_conditions(model, {"questions": questions})["questions"]


def evaluate_conditions(
    model: Model, prepared: dict[str, list[PreparedQuestion]]
) -> dict[str, float]:
    """Accuracy in percent per condition, over aligned question lists.

    Aligned lists have the same question count, candidate counts and token
    ids.  Per chunk of EVAL_CHUNK questions the trunk runs over the first
    condition's candidates plus each other candidate whose graph vectors
    differ from its first-condition counterpart by a byte; every other
    candidate's trunk input is the same, and so are its states.  These rows
    run in blocks of at most TRUNK_BLOCK, each padded to the chunk's T.
    Each condition is then scored from its own rows.  The scores are
    byte-identical to `batch_forward` on each condition's chunks.
    """
    base, first = next(iter(prepared.items()), (None, []))
    if not first:
        raise ValueError("empty evaluation set")
    for name, questions in prepared.items():
        if len(questions) != len(first) or any(
            len(a.candidates) != len(b.candidates)
            or any(not np.array_equal(x.ids, y.ids) for x, y in zip(a.candidates, b.candidates))
            for a, b in zip(first, questions)
        ):
            raise ValueError(
                f"condition {name!r} is not aligned with {base!r}: "
                "question counts, candidate counts or token ids differ"
            )
    correct = dict.fromkeys(prepared, 0)
    for start in range(0, len(first), EVAL_CHUNK):
        runs = []
        sources = []  # per condition, the first-condition rows it runs anew
        parts = []  # their graph vectors
        total = 0
        for name, questions in prepared.items():
            chunk = questions[start : start + EVAL_CHUNK]
            flat, slices, ids_c, mask_c = _flatten(chunk)
            g = _graph_vectors(model, flat)[0]
            if not runs:
                ids, mask, g_first = ids_c, mask_c, g
                changed = np.ones(len(flat), dtype=bool)
            else:
                changed = (g.view(np.uint8) != g_first.view(np.uint8)).any(axis=(0, 2))
            rows = np.arange(len(flat))  # each candidate's trunk row
            rows[changed] = total + np.arange(changed.sum())
            total += changed.sum()
            sources.append(np.flatnonzero(changed))
            parts.append(g[:, changed])
            runs.append((name, chunk, flat, slices, g, rows))
        source = np.concatenate(sources)
        g_rows = np.concatenate(parts, axis=1)
        for b in range(0, len(source), TRUNK_BLOCK):
            block = source[b : b + TRUNK_BLOCK]
            out, _ = _run_trunk(model, ids[block], mask[block], g_rows[:, b : b + TRUNK_BLOCK])
            if b == 0:
                states = np.empty((len(source), *out.shape[1:]), out.dtype)
            states[b : b + TRUNK_BLOCK] = out
        for name, chunk, flat, slices, g, rows in runs:
            scores = _score(model, flat, slices, g, states[rows, 1, :], states[rows, 0, :])[0]
            correct[name] += sum(
                int(np.argmax(scores[sl]) == q.answer_index) for q, sl in zip(chunk, slices)
            )
    return {name: 100.0 * correct[name] / len(first) for name in prepared}


# --- training -------------------------------------------------------------------


def train_model(
    model: Model,
    train_questions: list[PreparedQuestion],
    out_dir: str | None = None,
    log: bool = False,
) -> list[float]:
    """`cfg.epochs` of cross-entropy training with RAdam; returns the
    per-epoch loss curve.

    Deterministic for a fixed config seed.  When out_dir is given a
    checkpoint is written after every epoch plus a `final.ckpt`.
    """
    cfg = model.cfg
    if not train_questions:
        raise ValueError("empty training set")
    if any(len(q.candidates) < 2 for q in train_questions):
        raise ValueError("training questions need at least two candidates")
    optimizer = RAdam(model.params, cfg.lr_lm, cfg.lr_graph)
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle", model.kind))
    losses: list[float] = []
    step = 0
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(train_questions))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_questions[i] for i in order[start : start + cfg.batch_size]]
            loss, grads = loss_and_grads(model, batch)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"non-finite loss {loss} at epoch {epoch} step {step} "
                    f"(kind={model.kind}, lr_lm={cfg.lr_lm}, lr_graph={cfg.lr_graph})"
                )
            bad = next((name for name, g in grads.items() if not np.isfinite(g).all()), None)
            if bad is not None:
                raise DivergenceError(
                    f"non-finite gradient of {bad} at epoch {epoch} step {step} "
                    f"(kind={model.kind}, lr_lm={cfg.lr_lm}, lr_graph={cfg.lr_graph})"
                )
            optimizer.step(model.params, grads)
            del grads  # the step's gradients die before the next forward runs
            epoch_loss += loss
            batches += 1
            step += 1
        losses.append(epoch_loss / batches)
        if log:
            print(f"epoch {epoch:3d}  loss {losses[-1]:.6f}")
        if out_dir is not None:
            save_model(model, f"{out_dir}/epoch_{epoch:03d}.ckpt", step=step)
    if out_dir is not None:
        save_model(model, f"{out_dir}/final.ckpt", step=step)
    return losses


# --- persistence ----------------------------------------------------------------


def save_model(model: Model, path: str, step: int = 0) -> None:
    save_checkpoint(
        path,
        model.params,
        config=asdict(model.cfg),
        seed=model.cfg.seed,
        step=step,
        meta={"kind": model.kind, "relations": model.relations},
    )


def load_model(path: str) -> Model:
    """The model a checkpoint holds.  CheckpointError names the path and the
    first way its header or tensors differ from what `create_model` builds
    (its names and shapes, learnt without drawing any parameter)."""
    params, header = load_checkpoint(path)
    config, meta = header.get("config"), header.get("meta")
    if not isinstance(config, dict) or not isinstance(meta, dict):
        raise CheckpointError(f"{path}: checkpoint header needs config and meta objects")
    odd = sorted(set(config) ^ {f.name for f in fields(Config)})
    if odd:
        raise CheckpointError(f"{path}: checkpoint config fields differ from Config: {odd}")
    try:
        cfg = Config(**config)
    except (TypeError, ValueError) as err:
        raise CheckpointError(f"{path}: invalid checkpoint config ({err})") from None
    kind, relations = meta.get("kind"), meta.get("relations")
    if kind not in MODEL_KINDS:
        raise CheckpointError(f"{path}: model kind {kind!r} is not one of {MODEL_KINDS}")
    if not isinstance(relations, list) or not all(isinstance(r, str) for r in relations):
        raise CheckpointError(f"{path}: checkpoint meta needs a relation list")
    have = {name: tensor.shape for name, tensor in params.items()}
    need = {
        name: tensor.shape
        for name, tensor in _init_params(cfg, kind, len(relations), _NoDraws()).items()
    }
    for name in sorted(have.keys() | need.keys()):
        if have.get(name) != need.get(name):
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {have.get(name, 'none')}, "
                f"a {kind} model needs {need.get(name, 'none')}"
            )
    return Model(cfg=cfg, kind=kind, params=_cast(cfg, params), relations=list(relations))


# --- gradient checking ------------------------------------------------------------

GRADCHECK_STEP = 1e-5  # a central difference moves one parameter element this far each way


@dataclass
class GradCheckReport:
    group_errors: dict[str, float]
    checked: int

    @property
    def max_error(self) -> float:
        return max(self.group_errors.values(), default=0.0)

    def lines(self) -> list[str]:
        out = [f"{group}: {err:.3e}" for group, err in sorted(self.group_errors.items())]
        out.append(f"max_relative_error: {self.max_error:.3e} over {self.checked} parameters")
        return out


def gradient_check(
    model: Model, questions: list[PreparedQuestion], max_per_param: int | None = None
) -> GradCheckReport:
    """Central finite differences against the analytic gradients.

    Relative error uses a small magnitude floor so finite-difference noise on
    near-zero gradients does not dominate.  `max_per_param` caps how many
    (deterministically chosen) elements per tensor are probed.
    """
    grads = loss_and_grads(model, questions)[1]
    group_errors: dict[str, float] = {}
    checked = 0
    for name in sorted(model.params):
        param = model.params[name]
        grad = grads.get(name)
        if grad is None:
            grad = np.zeros_like(param)
        flat = param.reshape(-1)
        grad_flat = np.asarray(grad).reshape(-1)
        if max_per_param is not None and flat.size > max_per_param:
            picker = np.random.default_rng(derive_seed(0, "gradcheck", name))
            indices = picker.choice(flat.size, size=max_per_param, replace=False)
        else:
            indices = np.arange(flat.size)
        for idx in indices:
            original = flat[idx]
            flat[idx] = original + GRADCHECK_STEP
            up = batch_forward(model, questions).loss
            flat[idx] = original - GRADCHECK_STEP
            down = batch_forward(model, questions).loss
            flat[idx] = original
            numeric = (up - down) / (2.0 * GRADCHECK_STEP)
            analytic = grad_flat[idx]
            denom = max(abs(analytic), abs(numeric), 1e-4)
            err = abs(analytic - numeric) / denom
            group = name.split(".", 1)[0]
            group_errors[group] = max(group_errors.get(group, 0.0), err)
            checked += 1
    return GradCheckReport(group_errors=group_errors, checked=checked)
