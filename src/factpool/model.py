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

from dataclasses import dataclass, field, fields, replace
from typing import Iterator

import numpy as np

from factpool.config import Config
from factpool.data import QuestionRecord
from factpool.encoders import FileBackedEncoder, HashBagEncoder, ToyTrunkEncoder, encode_subgraphs
from factpool.gnn import (
    GNNConfig,
    SubgraphArrays,
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
    KnowledgeGraph,
    Subgraph,
    add_virtual_question_node,
    ground_statement,
    id_to_surface,
    remove_answer_edges,
    retrieve_subgraph,
)
from factpool.optim import RAdam
from factpool.pooling import PoolingHead, init_pooling_head, pool_backward_arrays, pool_forward
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
from factpool.verbalize import TemplateTable
from factpool.checkpoint import CheckpointError, load_checkpoint, save_checkpoint

MODEL_KINDS = ("pooled", "gnn", "lm")
WITH_ANSWERS = "with_answers"
WITHOUT_ANSWERS = "without_answers"
CONDITIONS = (WITH_ANSWERS, WITHOUT_ANSWERS)

_FROZEN_PREFIX = "frozen."


@dataclass
class Model:
    cfg: Config
    kind: str
    params: dict[str, np.ndarray]
    relations: list[str]  # relation table order shared by GNN and metadata
    tokenizer: Tokenizer

    @property
    def relation_index(self) -> dict[str, int]:
        return {rel: i for i, rel in enumerate(self.relations)}

    def pooling_heads(self) -> list[PoolingHead]:
        return [
            PoolingHead(**{f.name: self.params[f"pool{k}.{f.name}"] for f in fields(PoolingHead)})
            for k in range(self.cfg.num_pooling_heads())
        ]

    def frozen_snapshot(self) -> dict[str, np.ndarray]:
        return {
            name[len(_FROZEN_PREFIX) :]: arr
            for name, arr in self.params.items()
            if name.startswith(_FROZEN_PREFIX)
        }

    def gnn_config(self) -> GNNConfig:
        return GNNConfig(layers=self.cfg.gnn_layers, aggregation=self.cfg.gnn_aggregation)


def relation_table(kg: KnowledgeGraph) -> list[str]:
    return sorted(kg.relations | {VIRTUAL_QUESTION_RELATION, VIRTUAL_ANSWER_RELATION})


def create_model(cfg: Config, kind: str, relations: list[str]) -> Model:
    """Seeded parameter construction; the draw order is fixed per kind."""
    if kind not in MODEL_KINDS:
        raise ValueError(f"model kind must be one of {MODEL_KINDS}")
    rng = np.random.default_rng(derive_seed(cfg.seed, "init", kind))
    dtype = cfg.dtype
    params = init_trunk_params(cfg.L, cfg.d, cfg.vocab_size, cfg.max_tokens, rng, dtype)
    params.update(init_scalar_head("fq", cfg.d, rng, dtype))
    if kind in ("pooled", "lm"):
        params.update(init_scalar_head("fg", cfg.d, rng, dtype))
    if kind == "pooled":
        for k in range(cfg.num_pooling_heads()):
            head = init_pooling_head(cfg.d, rng, dtype)
            for f in fields(head):
                params[f"pool{k}.{f.name}"] = getattr(head, f.name)
    if kind == "gnn":
        params.update(init_gnn_params(cfg.d, len(relations), rng, dtype))
    if cfg.encoder_kind == "shared-toy-encoder":
        # Pre-fine-tuning snapshot of the embedder and trunk; never trained.
        trunk_names = [n for n in params if n.startswith(("tok_emb", "pos_emb", "layer"))]
        for name in trunk_names:
            params[_FROZEN_PREFIX + name] = params[name].copy()
    return Model(
        cfg=cfg,
        kind=kind,
        params=params,
        relations=list(relations),
        tokenizer=Tokenizer(cfg.vocab_size),
    )


def build_encoder(model: Model, cache_path: str | None = None):
    cfg = model.cfg
    if cfg.encoder_kind == "hash-bag":
        return HashBagEncoder(cfg.d, derive_seed(cfg.seed, "encoder"), cfg.token_pooling)
    if cfg.encoder_kind == "shared-toy-encoder":
        return ToyTrunkEncoder(
            model.frozen_snapshot(),
            cfg.L,
            cfg.heads,
            model.tokenizer,
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
class PreparedCandidate:
    ids: np.ndarray  # [T] token ids
    facts: list[Fact]  # canonical edge order, aligned with edge_matrix rows
    fact_texts: list[str]
    edge_matrix: np.ndarray  # [E, d]; E may be 0
    subgraph: Subgraph
    gnn: SubgraphArrays | None = None
    node_init: np.ndarray | None = None  # [N, d]; virtual row is a placeholder


@dataclass
class PreparedQuestion:
    candidates: list[PreparedCandidate]
    answer_index: int


def ground_records(
    kg: KnowledgeGraph, records: list[QuestionRecord], max_nodes: int
) -> Iterator[list[tuple[GroundedStatement, Subgraph]]]:
    """Per record: each candidate's linked statement and its intact subgraph
    with the virtual question node.  Pre-linked entity sets in a record take
    precedence over text linking."""
    for record in records:
        answers = record.answer_entities or [None] * len(record.candidates)
        statements = []
        for text, linked in zip(record.candidates, answers):
            stmt = ground_statement(
                kg, record.context, record.question, text, record.question_entities, linked
            )
            sub = add_virtual_question_node(retrieve_subgraph(kg, stmt, max_nodes), stmt)
            statements.append((stmt, sub))
        yield statements


def apply_condition(sub: Subgraph, stmt: GroundedStatement, condition: str) -> Subgraph:
    """The subgraph as seen under `condition`, from the intact subgraph."""
    if condition == WITHOUT_ANSWERS:
        return remove_answer_edges(sub, stmt)
    if condition != WITH_ANSWERS:
        raise ValueError(f"condition must be one of {CONDITIONS}")
    return sub


@dataclass
class DatasetEncoding:
    """What a dataset's questions share: its encoded facts and entities."""

    texts: dict[str, str]  # fact key -> verbalized text
    vectors: dict[str, np.ndarray]  # fact key -> edge vector
    nodes: dict[str, np.ndarray]  # gnn: node id -> initial state
    relation_index: dict[str, int]


def prepare_dataset(
    model: Model,
    kg: KnowledgeGraph,
    templates: TemplateTable,
    encoder,
    records: list[QuestionRecord],
    condition: str = WITH_ANSWERS,
) -> list[PreparedQuestion]:
    return prepare_conditions(model, kg, templates, encoder, records, (condition,))[condition]


def prepare_conditions(
    model: Model,
    kg: KnowledgeGraph,
    templates: TemplateTable,
    encoder,
    records: list[QuestionRecord],
    conditions: tuple[str, ...] = CONDITIONS,
) -> dict[str, list[PreparedQuestion]]:
    """`records` prepared under each of `conditions` from one grounding.

    Every statement is retrieved once and every distinct fact verbalized
    once.  All edge vectors come from one `encode_subgraphs` call and, for
    gnn, all entity surfaces from one `encode_texts` call.
    """
    if model.kind == "gnn" and not hasattr(encoder, "encode_texts"):
        raise ValueError(
            "gnn models need a text-capable encoder for entity node states; "
            "the external-file encoder only serves cached facts"
        )
    grounding = list(ground_records(kg, records, model.cfg.max_nodes))
    subgraphs = [sub for statements in grounding for _, sub in statements]
    vectors: dict[str, np.ndarray] = {}
    texts = encode_subgraphs(subgraphs, templates, encoder, vectors)
    nodes = {VIRTUAL_NODE_ID: np.zeros(model.cfg.d)}  # a placeholder for the question state
    if model.kind == "gnn":
        entities = sorted({node for sub in subgraphs for node in sub.nodes} - {VIRTUAL_NODE_ID})
        surfaces = [id_to_surface(entity) for entity in entities]
        nodes.update(zip(entities, encoder.encode_texts(surfaces)))
    encoding = DatasetEncoding(texts, vectors, nodes, model.relation_index)
    questions = [
        prepare_question(model, record, statements, encoding, conditions)
        for record, statements in zip(records, grounding)
    ]
    return {condition: [q[condition] for q in questions] for condition in conditions}


def prepare_question(
    model: Model,
    record: QuestionRecord,
    statements: list[tuple[GroundedStatement, Subgraph]],
    encoding: DatasetEncoding,
    conditions: tuple[str, ...],
) -> dict[str, PreparedQuestion]:
    """One record under each condition, from its statements' intact subgraphs.

    A without_answers candidate is the intact one minus the answer-incident
    edges' rows; its nodes, and so its token ids and node states, stay.
    """
    cfg = model.cfg
    prepared = {c: PreparedQuestion([], record.answer_index) for c in conditions}
    for stmt, sub in statements:
        facts = sub.sorted_edges()
        keys = [fact.key() for fact in facts]
        ids = tokenize_statement(
            stmt.context, stmt.question, stmt.candidate, model.tokenizer, cfg.max_tokens
        )
        intact = PreparedCandidate(
            ids=np.asarray(ids, dtype=np.int64),
            facts=facts,
            fact_texts=[encoding.texts[key] for key in keys],
            edge_matrix=(
                np.stack([encoding.vectors[key] for key in keys]) if keys else np.zeros((0, cfg.d))
            ),
            subgraph=sub,
        )
        if model.kind == "gnn":
            intact.gnn = subgraph_arrays(sub, encoding.relation_index)
            intact.node_init = np.stack([encoding.nodes[node] for node in intact.gnn.node_ids])
        for condition, question in prepared.items():
            kept = apply_condition(sub, stmt, condition)
            cand = intact
            if kept is not sub:
                rows = [i for i, fact in enumerate(facts) if fact in kept.edges]
                cand = replace(
                    intact,
                    facts=[facts[i] for i in rows],
                    fact_texts=[intact.fact_texts[i] for i in rows],
                    edge_matrix=intact.edge_matrix[rows],
                    subgraph=kept,
                    gnn=subgraph_arrays(kept, encoding.relation_index) if intact.gnn else None,
                )
            question.candidates.append(cand)
    return prepared


# --- batched forward / backward ----------------------------------------------


class DivergenceError(RuntimeError):
    """Non-finite scores or loss: the model or its inputs have diverged."""


@dataclass
class BatchResult:
    loss: float
    scores: np.ndarray  # [num candidates total]
    probs: list[np.ndarray]  # per question
    predictions: list[int]
    slices: list[slice]
    pool_weights: list[list[np.ndarray]]  # per candidate, per head
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
    """Scores, loss and predictions for a batch of questions.

    backward_cache: keep what `batch_backward` reads (the trunk's per-layer
    activations, the pooling, GNN and head caches and the score gradient).
    Without it the result carries only the trunk's inputs and per-layer
    graph-token states, its final states and the question states.
    """
    cfg = model.cfg
    params = model.params
    flat, slices, ids, mask = _flatten(questions)
    bs = len(flat)
    aggregations = 0
    pool_caches: list[list] = [[] for _ in range(bs)]
    pool_weights: list[list[np.ndarray]] = [[] for _ in range(bs)]
    if model.kind == "pooled":
        heads = model.pooling_heads()
        g = np.zeros((len(heads), bs, cfg.d))
        for i, cand in enumerate(flat):
            for k, head in enumerate(heads):
                if cand.edge_matrix.shape[0]:
                    pooled, weights, cache = pool_forward(head, cand.edge_matrix)
                    g[k, i] = pooled
                else:
                    weights, cache = np.zeros(0), None
                if backward_cache:
                    pool_caches[i].append(cache)
                pool_weights[i].append(weights)
                aggregations += 1
        graph_init = g[0]
        injections = {
            _injection_layer(cfg.L, k): g[k] for k in range(1, cfg.num_pooling_heads())
        }
    else:
        g = np.zeros((1, bs, cfg.d))
        graph_init = g[0]
        injections = {}
    states, trunk_cache = trunk_forward(
        params, cfg.L, cfg.heads, ids, mask, graph_init, injections, backward_cache
    )
    q_final = states[:, 1, :]
    graph_final = states[:, 0, :]
    fq_scores, fq_cache = scalar_head_forward(params, "fq", q_final)
    gnn_caches = []
    if model.kind == "gnn":
        gcfg = model.gnn_config()
        gamma = np.zeros((bs, cfg.d))
        for i, cand in enumerate(flat):
            node_init = cand.node_init.copy()
            node_init[cand.gnn.virtual_index] = q_final[i]
            final, gcache, count = gnn_forward_arrays(params, gcfg, cand.gnn, node_init)
            gamma[i] = final[cand.gnn.virtual_index]
            if backward_cache:
                gnn_caches.append(gcache)
            aggregations += count
        graph_scores, fg_cache = scalar_head_forward(params, "gnn.score", gamma)
    else:
        gamma = graph_init if cfg.K == 0 else graph_final
        graph_scores, fg_cache = scalar_head_forward(params, "fg", gamma)
    scores = fq_scores + graph_scores
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        i = int(bad[0])
        q = next(n for n, sl in enumerate(slices) if sl.start <= i < sl.stop)
        raise DivergenceError(
            f"non-finite score {scores[i]} for candidate {i - slices[q].start} "
            f"of question {q} in the batch (kind={model.kind})"
        )
    loss = 0.0
    d_scores = np.zeros(bs)
    probs_per_q: list[np.ndarray] = []
    predictions = []
    nq = len(questions)
    for q, sl in zip(questions, slices):
        s = scores[sl]
        log_probs = candidate_log_probabilities(s)
        probs = np.exp(log_probs)
        probs_per_q.append(probs)
        predictions.append(int(np.argmax(s)))
        loss += -log_probs[q.answer_index] / nq
        if backward_cache:
            d = probs.copy()
            d[q.answer_index] -= 1.0
            d_scores[sl] = d / nq
    caches = {"trunk_cache": trunk_cache, "q_final": q_final, "graph_states_final": states}
    if backward_cache:
        caches.update(
            flat=flat,
            pool_caches=pool_caches,
            fq_cache=fq_cache,
            fg_cache=fg_cache,
            gnn_caches=gnn_caches,
            d_scores=d_scores,
        )
    return BatchResult(
        loss=float(loss),
        scores=scores,
        probs=probs_per_q,
        predictions=predictions,
        slices=slices,
        pool_weights=pool_weights,
        aggregations=aggregations,
        _caches=caches,
    )


def batch_backward(model: Model, result: BatchResult) -> dict[str, np.ndarray]:
    cfg = model.cfg
    params = model.params
    caches = result._caches
    if "d_scores" not in caches:
        raise NoBackwardCacheError(
            "batch_forward ran without a backward cache; call it with backward_cache=True"
        )
    flat = caches["flat"]
    bs = len(flat)
    d_scores = caches["d_scores"]
    grads: dict[str, np.ndarray] = {}

    def accumulate(new: dict[str, np.ndarray]) -> None:
        for name, grad in new.items():
            if name in grads:
                grads[name] += grad
            else:
                grads[name] = grad

    fq_grads, d_q_final = scalar_head_backward(params, "fq", caches["fq_cache"], d_scores)
    accumulate(fq_grads)
    d_states = np.zeros_like(caches["graph_states_final"])
    d_g0_direct = None
    if model.kind == "gnn":
        head_grads, d_gamma = scalar_head_backward(
            params, "gnn.score", caches["fg_cache"], d_scores
        )
        accumulate(head_grads)
        gcfg = model.gnn_config()
        for i, cand in enumerate(flat):
            n = len(cand.gnn.node_ids)
            d_final = np.zeros((n, cfg.d))
            d_final[cand.gnn.virtual_index] = d_gamma[i]
            gnn_grads, d_init = gnn_backward_arrays(params, gcfg, caches["gnn_caches"][i], d_final)
            accumulate(gnn_grads)
            d_q_final[i] += d_init[cand.gnn.virtual_index]
    else:
        head_grads, d_gamma = scalar_head_backward(params, "fg", caches["fg_cache"], d_scores)
        accumulate(head_grads)
        if cfg.K == 0:
            d_g0_direct = d_gamma
        else:
            d_states[:, 0, :] += d_gamma
    d_states[:, 1, :] += d_q_final
    trunk_grads, d_graph_init, d_injections = trunk_backward(
        params, cfg.L, caches["trunk_cache"], d_states
    )
    accumulate(trunk_grads)
    if model.kind == "pooled":
        heads = model.pooling_heads()
        d_g = np.zeros((len(heads), bs, cfg.d))
        d_g[0] = d_graph_init
        if d_g0_direct is not None:
            d_g[0] += d_g0_direct
        for k in range(1, len(heads)):
            layer = _injection_layer(cfg.L, k)
            if layer in d_injections:
                d_g[k] = d_injections[layer]
        pool_caches = caches["pool_caches"]
        for i, cand in enumerate(flat):
            if not cand.edge_matrix.shape[0]:
                continue
            for k, head in enumerate(heads):
                head_grads, _d_edges = pool_backward_arrays(
                    head, pool_caches[i][k], d_g[k, i]
                )
                accumulate({f"pool{k}.{name}": grad for name, grad in head_grads.items()})
    return grads


def loss_and_grads(model: Model, questions: list[PreparedQuestion]):
    result = batch_forward(model, questions, backward_cache=True)
    grads = batch_backward(model, result)
    return result.loss, grads, result


def batch_loss(model: Model, questions: list[PreparedQuestion]) -> float:
    return batch_forward(model, questions).loss


def evaluate(model: Model, questions: list[PreparedQuestion]) -> float:
    """Accuracy in percent over prepared questions."""
    if not questions:
        raise ValueError("empty evaluation set")
    correct = 0
    for start in range(0, len(questions), 64):
        chunk = questions[start : start + 64]
        result = batch_forward(model, chunk)
        correct += sum(
            int(pred == q.answer_index) for pred, q in zip(result.predictions, chunk)
        )
    return 100.0 * correct / len(questions)


# --- training -------------------------------------------------------------------


def train_model(
    model: Model,
    train_questions: list[PreparedQuestion],
    epochs: int | None = None,
    out_dir: str | None = None,
    log: bool = False,
) -> list[float]:
    """Cross-entropy training with RAdam; returns the per-epoch loss curve.

    Deterministic for a fixed config seed.  When out_dir is given a
    checkpoint is written after every epoch plus a `final.ckpt`.
    """
    cfg = model.cfg
    if not train_questions:
        raise ValueError("empty training set")
    if any(len(q.candidates) < 2 for q in train_questions):
        raise ValueError("training questions need at least two candidates")
    epochs = cfg.epochs if epochs is None else epochs
    optimizer = RAdam(model.params, cfg.lr_lm, cfg.lr_graph)
    shuffle_rng = np.random.default_rng(derive_seed(cfg.seed, "shuffle", model.kind))
    losses: list[float] = []
    step = 0
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(len(train_questions))
        epoch_loss = 0.0
        batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = [train_questions[i] for i in order[start : start + cfg.batch_size]]
            loss, grads, _ = loss_and_grads(model, batch)
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
        config=model.cfg.to_dict(),
        seed=model.cfg.seed,
        step=step,
        meta={"kind": model.kind, "relations": model.relations},
    )


def load_model(path: str) -> Model:
    """The model a checkpoint holds.  CheckpointError names the path and the
    first way its header or tensors differ from what `create_model` builds."""
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
    model = create_model(cfg, kind, relations)
    have = {name: tensor.shape for name, tensor in params.items()}
    need = {name: tensor.shape for name, tensor in model.params.items()}
    for name in sorted(have.keys() | need.keys()):
        if have.get(name) != need.get(name):
            raise CheckpointError(
                f"{path}: tensor {name!r} has shape {have.get(name, 'none')}, "
                f"a {kind} model needs {need.get(name, 'none')}"
            )
    model.params = params
    return model


# --- gradient checking ------------------------------------------------------------


@dataclass
class GradCheckReport:
    group_errors: dict[str, float]
    max_error: float
    checked: int

    def lines(self) -> list[str]:
        out = [f"{group}: {err:.3e}" for group, err in sorted(self.group_errors.items())]
        out.append(f"max_relative_error: {self.max_error:.3e} over {self.checked} parameters")
        return out


def _group_of(name: str) -> str:
    return name.split(".", 1)[0]


def gradient_check(
    model: Model,
    questions: list[PreparedQuestion],
    step: float = 1e-5,
    max_per_param: int | None = None,
) -> GradCheckReport:
    """Central finite differences against the analytic gradients.

    Relative error uses a small magnitude floor so finite-difference noise on
    near-zero gradients does not dominate.  `max_per_param` caps how many
    (deterministically chosen) elements per tensor are probed.
    """
    base_loss, grads, _ = loss_and_grads(model, questions)
    del base_loss
    group_errors: dict[str, float] = {}
    checked = 0
    for name in sorted(model.params):
        if name.startswith(_FROZEN_PREFIX):
            continue
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
            flat[idx] = original + step
            up = batch_loss(model, questions)
            flat[idx] = original - step
            down = batch_loss(model, questions)
            flat[idx] = original
            numeric = (up - down) / (2.0 * step)
            analytic = grad_flat[idx]
            denom = max(abs(analytic), abs(numeric), 1e-4)
            err = abs(analytic - numeric) / denom
            group = _group_of(name)
            group_errors[group] = max(group_errors.get(group, 0.0), err)
            checked += 1
    return GradCheckReport(
        group_errors=group_errors,
        max_error=max(group_errors.values()) if group_errors else 0.0,
        checked=checked,
    )
