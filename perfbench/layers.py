"""Layer boundaries of factpool and the per-layer metrics derived from spans.

Every per-layer metric names the end-to-end metric it should move and on
which workload (`MOVES`; robust-* is robust-pooled and robust-gnn).  The
end-to-end metrics are the same on every workload:

    setup_s      input generation plus asset loading;
    wall_s       robust-*: one `run_experiment` call (experiment_s);
                 ground: one cycle of the `retrieve`, `perturb` and `encode`
                 commands and the cached prepare;
    peak_rss_mb  peak resident memory of the benchmark process.

Beside them each run reports stage figures: on robust-* the accuracies and
final loss, on ground retrieve_qps, encode_qps and cached_prepare_qps, the
three stages of its wall_s.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass
from typing import Callable

from spans import END, NAME, PARENT, START, ATTRS, Boundary, self_time

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


def _retrieve_attrs(args, kwargs, result):
    stmt = _arg(args, kwargs, 1, "stmt")
    key = "|".join(
        [
            str(_arg(args, kwargs, 2, "max_nodes")),
            stmt.statement_text(),
            ",".join(sorted(stmt.question_entities)),
            ",".join(sorted(stmt.answer_entities)),
        ]
    )
    return {"edges": len(result.edges), "key": key}


def _tokenize_attrs(args, kwargs, result):
    # The untruncated statement is [GRAPH][CLS] context [SEP] question [SEP]
    # candidate; tokens are lowercase alphanumeric runs.
    length = 4 + sum(
        len(_TOKEN_RE.findall(_arg(args, kwargs, i, name).lower()))
        for i, name in ((0, "context"), (1, "question"), (2, "candidate"))
    )
    return {"truncated": int(length > _arg(args, kwargs, 4, "max_tokens"))}


def _encode_text_attrs(args, kwargs, result):
    return {"key": _arg(args, kwargs, 1, "text")}


def _encode_fact_attrs(args, kwargs, result):
    return {"key": _arg(args, kwargs, 2, "text")}


def _trunk_flops(batch, tokens, d, layers):
    # Per layer: Q/K/V/output projections 8*B*T*d^2, FFN 16*B*T*d^2,
    # attention scores and mixing 4*B*T^2*d.
    return layers * (24 * batch * tokens * d * d + 4 * batch * tokens * tokens * d)


def _trunk_fwd_attrs(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    ids = _arg(args, kwargs, 3, "ids")
    mask = _arg(args, kwargs, 4, "real_mask")
    b, t = ids.shape
    d = params["tok_emb"].shape[1]
    return {
        "flops": _trunk_flops(b, t, d, _arg(args, kwargs, 1, "L")),
        "tokens": int(mask.sum()),
        "slots": b * t,
    }


def _trunk_bwd_attrs(args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    b, t = _arg(args, kwargs, 2, "cache")[0].shape
    d = params["tok_emb"].shape[1]
    # Each forward GEMM costs two GEMMs of the same size backward.
    return {"flops": 2 * _trunk_flops(b, t, d, _arg(args, kwargs, 1, "L"))}


def _pool_attrs(args, kwargs, result):
    return {"edges": _arg(args, kwargs, 1, "matrix").shape[0]}


def _gnn_attrs(args, kwargs, result):
    arrays = _arg(args, kwargs, 2, "arrays")
    return {"messages": len(arrays.src) * _arg(args, kwargs, 1, "cfg").layers}


def _batch_forward_attrs(args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    if model.kind != "pooled":
        return None
    questions = _arg(args, kwargs, 1, "questions")
    return {
        "empty": sum(
            1 for q in questions for c in q.candidates if c.edge_matrix.shape[0] == 0
        )
    }


_B = Boundary
BOUNDARIES = [
    _B("kg.load", "factpool.kg:load_kg"),
    _B("kg.link", "factpool.kg:link_entities"),
    _B("kg.retrieve", "factpool.kg:retrieve_subgraph", _retrieve_attrs),
    _B("kg.perturb", "factpool.kg:remove_answer_edges"),
    _B("verbalize", "factpool.verbalize:verbalize"),
    _B("tokenizer", "factpool.tokenizer:tokenize_statement", _tokenize_attrs),
    _B("encoders.encode", "factpool.encoders:HashBagEncoder.encode_text", _encode_text_attrs),
    _B("encoders.encode", "factpool.encoders:HashBagEncoder.encode_fact_text", _encode_fact_attrs),
    _B("encoders.encode", "factpool.encoders:ToyTrunkEncoder.encode_text", _encode_text_attrs),
    _B("encoders.encode", "factpool.encoders:ToyTrunkEncoder.encode_fact_text", _encode_fact_attrs),
    _B("encoders.encode", "factpool.encoders:FileBackedEncoder.encode_fact_text", _encode_fact_attrs),
    _B("encoders.cache_write", "factpool.encoders:write_embedding_cache", _file_bytes),
    _B("encoders.cache_read", "factpool.encoders:read_embedding_cache", _file_bytes),
    _B("transformer.fwd", "factpool.transformer:trunk_forward", _trunk_fwd_attrs),
    _B("transformer.bwd", "factpool.transformer:trunk_backward", _trunk_bwd_attrs),
    _B("transformer.head.fwd", "factpool.transformer:scalar_head_forward"),
    _B("transformer.head.bwd", "factpool.transformer:scalar_head_backward"),
    _B("numerics.gelu.fwd", "factpool.numerics:gelu_cached"),
    _B("numerics.gelu.bwd", "factpool.numerics:gelu_grad_cached"),
    _B("numerics.layer_norm.fwd", "factpool.numerics:layer_norm"),
    _B("numerics.layer_norm.bwd", "factpool.numerics:layer_norm_backward"),
    _B("numerics.softmax.fwd", "factpool.numerics:softmax_stable"),
    _B("numerics.softmax.bwd", "factpool.numerics:softmax_backward"),
    _B("pooling.fwd", "factpool.pooling:pool_forward", _pool_attrs),
    _B("pooling.bwd", "factpool.pooling:pool_backward_arrays"),
    _B("gnn.fwd", "factpool.gnn:gnn_forward_arrays", _gnn_attrs),
    _B("gnn.bwd", "factpool.gnn:gnn_backward_arrays"),
    _B("gnn.arrays", "factpool.gnn:subgraph_arrays"),
    _B("optim.step", "factpool.optim:RAdam.step"),
    _B("checkpoint.save", "factpool.checkpoint:save_checkpoint", _file_bytes),
    _B("checkpoint.load", "factpool.checkpoint:load_checkpoint", _file_bytes),
    _B("model.prepare", "factpool.model:prepare_question", ref="q"),
    _B("model.prepare_dataset", "factpool.model:prepare_dataset"),
    _B("model.loss_and_grads", "factpool.model:loss_and_grads", ref="batch"),
    _B("model.batch_forward", "factpool.model:batch_forward", _batch_forward_attrs, ref="batch"),
    _B("model.batch_backward", "factpool.model:batch_backward"),
    _B("model.evaluate", "factpool.model:evaluate"),
    _B("model.train", "factpool.model:train_model"),
    _B("experiment.run", "factpool.experiment:run_experiment"),
    _B("experiment.hashes", "factpool.experiment:pipeline_hashes"),
    _B("cli.retrieve", "factpool.cli:cmd_retrieve"),
    _B("cli.perturb", "factpool.cli:cmd_perturb"),
    _B("cli.encode", "factpool.cli:cmd_encode"),
]


class Spans:
    """Span list grouped by name, with the queries the metrics need."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        self.by_name: dict[str, list[list]] = {}
        for span in spans:
            self.by_name.setdefault(span[NAME], []).append(span)

    def of(self, name: str) -> list[list]:
        return self.by_name.get(name, [])

    def outermost(self, name: str) -> list[list]:
        return [s for s in self.of(name) if s[PARENT] < 0 or self.spans[s[PARENT]][NAME] != name]

    def calls(self, name: str) -> int:
        return len(self.outermost(name))

    def self_s(self, name: str) -> float:
        return sum(self_time(s) for s in self.of(name))

    def attr_sum(self, name: str, key: str) -> float:
        return sum(s[ATTRS][key] for s in self.of(name) if s[ATTRS] is not None)

    def attr_mean(self, name: str, key: str) -> float:
        values = [s[ATTRS][key] for s in self.of(name) if s[ATTRS] is not None]
        return sum(values) / len(values) if values else 0.0

    def repeat_ratio(self, name: str) -> float:
        spans = self.outermost(name)
        seen: set[str] = set()
        repeats = 0
        for span in spans:
            key = span[ATTRS]["key"]
            repeats += key in seen
            seen.add(key)
        return repeats / len(spans) if spans else 0.0

    def inside(self, name: str, ancestor: str) -> list[list]:
        """Spans of `name` that have an `ancestor` span above them."""
        out = []
        for span in self.of(name):
            parent = span[PARENT]
            while parent >= 0 and self.spans[parent][NAME] != ancestor:
                parent = self.spans[parent][PARENT]
            if parent >= 0:
                out.append(span)
        return out

    def train_step_ms(self) -> list[float]:
        """One sample per optimizer step: from the start of the step's
        loss_and_grads to the end of its RAdam update."""
        samples = []
        pending = None
        for span in self.spans:
            if span[NAME] == "model.loss_and_grads":
                pending = span[START]
            elif span[NAME] == "optim.step" and pending is not None:
                samples.append(1000.0 * (span[END] - pending))
                pending = None
        return samples


def _wall(spans: list[list]) -> float:
    return sum(s[END] - s[START] for s in spans)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 when there are no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


@dataclass(frozen=True)
class LayerMetric:
    name: str
    unit: str
    needs: tuple[str, ...]  # boundary span names the value is derived from
    value: Callable[[Spans], float]


def _calls(name):
    return LayerMetric(f"{name}.calls", "count", (name,), lambda s: s.calls(name))


def _self_s(name):
    return LayerMetric(f"{name}.self_s", "s", (name,), lambda s: s.self_s(name))


def _sum(metric, name, key, unit):
    return LayerMetric(metric, unit, (name,), lambda s: s.attr_sum(name, key))


def _fwd_bwd(prefix, flops=False):
    out = []
    for side in ("fwd", "bwd"):
        name = f"{prefix}.{side}"
        out += [_calls(name), _self_s(name)]
        if flops:
            out.append(_sum(f"{name}.flops", name, "flops", "flop_computed"))
    return out


def _pad_ratio(s: Spans) -> float:
    slots = s.attr_sum("transformer.fwd", "slots")
    return 1.0 - s.attr_sum("transformer.fwd", "tokens") / slots if slots else 0.0


def _phase(metric, boundary):
    return LayerMetric(
        metric, "s", (boundary, "experiment.run"),
        lambda s: _wall(s.inside(boundary, "experiment.run")),
    )


LAYER_METRICS: list[LayerMetric] = [
    _self_s("kg.load"),
    _calls("kg.link"), _self_s("kg.link"),
    _calls("kg.retrieve"), _self_s("kg.retrieve"),
    LayerMetric("kg.retrieve.edges_mean", "count", ("kg.retrieve",),
                lambda s: s.attr_mean("kg.retrieve", "edges")),
    LayerMetric("kg.retrieve.repeat_ratio", "ratio", ("kg.retrieve",),
                lambda s: s.repeat_ratio("kg.retrieve")),
    _calls("kg.perturb"), _self_s("kg.perturb"),
    _calls("verbalize"), _self_s("verbalize"),
    _calls("tokenizer"), _self_s("tokenizer"),
    _sum("tokenizer.truncated", "tokenizer", "truncated", "count"),
    _calls("encoders.encode"), _self_s("encoders.encode"),
    LayerMetric("encoders.encode.repeat_ratio", "ratio", ("encoders.encode",),
                lambda s: s.repeat_ratio("encoders.encode")),
    _calls("encoders.cache_write"),
    _sum("encoders.cache_write.bytes", "encoders.cache_write", "bytes", "B"),
    _self_s("encoders.cache_write"),
    _calls("encoders.cache_read"),
    _sum("encoders.cache_read.bytes", "encoders.cache_read", "bytes", "B"),
    _self_s("encoders.cache_read"),
    *_fwd_bwd("transformer", flops=True),
    _sum("transformer.fwd.tokens", "transformer.fwd", "tokens", "count"),
    LayerMetric("transformer.pad_ratio", "ratio", ("transformer.fwd",), _pad_ratio),
    _self_s("transformer.head.fwd"), _self_s("transformer.head.bwd"),
    *_fwd_bwd("numerics.gelu"), *_fwd_bwd("numerics.layer_norm"), *_fwd_bwd("numerics.softmax"),
    *_fwd_bwd("pooling"),
    LayerMetric("pooling.edges_mean", "count", ("pooling.fwd",),
                lambda s: s.attr_mean("pooling.fwd", "edges")),
    _sum("pooling.empty", "model.batch_forward", "empty", "count"),
    *_fwd_bwd("gnn"),
    _sum("gnn.messages", "gnn.fwd", "messages", "count"),
    _self_s("gnn.arrays"),
    _calls("optim.step"), _self_s("optim.step"),
    _calls("checkpoint.save"), _sum("checkpoint.save.bytes", "checkpoint.save", "bytes", "B"),
    _self_s("checkpoint.save"),
    _calls("checkpoint.load"), _sum("checkpoint.load.bytes", "checkpoint.load", "bytes", "B"),
    _self_s("checkpoint.load"),
    _self_s("model.prepare"),
    LayerMetric("model.train_step.p50_ms", "ms", ("model.loss_and_grads", "optim.step"),
                lambda s: _percentile(s.train_step_ms(), 50)),
    LayerMetric("model.train_step.p90_ms", "ms", ("model.loss_and_grads", "optim.step"),
                lambda s: _percentile(s.train_step_ms(), 90)),
    _self_s("model.batch_forward"), _self_s("model.batch_backward"),
    _self_s("model.evaluate"),
    # Phase split of one run_experiment call: inclusive wall time of each
    # phase, not self time, so the four add up to most of wall_s.
    _phase("experiment.prepare.wall_s", "model.prepare_dataset"),
    _phase("experiment.train.wall_s", "model.train"),
    _phase("experiment.eval.wall_s", "model.evaluate"),
    _phase("experiment.hashes.wall_s", "experiment.hashes"),
    _self_s("cli.retrieve"), _self_s("cli.perturb"), _self_s("cli.encode"),
]

OVERHEAD_METRIC = ("trace.overhead_pct", "%")

# Which end-to-end metric each layer should move, and on which workload;
# a per-layer metric belongs to the first entry whose prefix it starts with.
MOVES = [
    ("kg.load", "setup_s on every workload; wall_s (retrieve_qps) on ground, "
     "where each command reloads the KG"),
    ("kg.", "the prepare and hashes share of wall_s on robust-*; wall_s "
     "(retrieve_qps, cached_prepare_qps) on ground, where they dominate"),
    ("verbalize", "the prepare share of wall_s on robust-*; wall_s (cached_prepare_qps) on ground"),
    ("tokenizer", "the prepare share of wall_s on robust-*; wall_s (cached_prepare_qps) on ground"),
    ("encoders.", "wall_s (encode_qps, cached_prepare_qps) on ground; "
     "the prepare share of wall_s on robust-*"),
    ("transformer.", "wall_s on robust-*; wall_s (encode_qps) on ground, "
     "through the batch-1 forwards of the shared encoder"),
    ("numerics.", "wall_s on robust-*; wall_s (encode_qps) on ground"),
    ("pooling.", "wall_s on robust-pooled; no work on robust-gnn or ground"),
    ("gnn.", "wall_s on robust-gnn; no work on robust-pooled or ground"),
    ("optim.", "wall_s on robust-*"),
    ("checkpoint.save", "wall_s on robust-*"),
    ("checkpoint.load", "none: the untimed reload of final.ckpt on robust-*"),
    ("model.prepare", "the prepare share of wall_s on robust-*; wall_s "
     "(cached_prepare_qps) on ground"),
    ("model.", "wall_s on robust-*"),
    ("experiment.", "the phase split of wall_s on robust-*"),
    ("cli.", "wall_s (retrieve_qps, encode_qps) on ground"),
    ("trace.", "no end-to-end metric: traced over untraced wall_s"),
]


def moves(metric: str) -> str:
    return next(text for prefix, text in MOVES if metric.startswith(prefix))


def layer_metrics(recorded: list[list], missing_targets: list[str]) -> tuple[dict, list[str]]:
    """Per-layer values, and the metric names whose boundary is missing."""
    missing_names = {b.name for b in BOUNDARIES if b.target in missing_targets}
    spans = Spans(recorded)
    values: dict[str, float] = {}
    missing: list[str] = []
    for metric in LAYER_METRICS:
        if missing_names.intersection(metric.needs):
            missing.append(metric.name)
        else:
            values[metric.name] = float(metric.value(spans))
    return values, missing
