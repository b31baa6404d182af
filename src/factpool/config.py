"""Run configuration: dataclass plus flat key=value file round-trip."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from factpool.tokenizer import Tokenizer

FUSION_MODES = ("early", "early_late")
TOKEN_POOLINGS = ("cls", "mean")
ENCODER_KINDS = ("hash-bag", "shared-toy-encoder", "external-file")

_KIND = {int: "an integer", float: "a number"}


@dataclass
class Config:
    L: int = 4
    d: int = 64
    heads: int = 4
    K: int = 0
    fusion_mode: str = "early"
    max_tokens: int = 100
    max_nodes: int = 32
    token_pooling: str = "mean"
    encoder_kind: str = "hash-bag"
    lr_lm: float = 3e-4
    lr_graph: float = 1e-3
    epochs: int = 20
    batch_size: int = 16
    seed: int = 0
    # CHECKPOINT_ONLY: carried in checkpoints, not in the key=value file.
    vocab_size: int = 2048
    gnn_layers: int = 2
    precision: str = "f64"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        for name in (
            "L", "d", "heads", "max_tokens", "max_nodes", "epochs", "batch_size", "gnn_layers"
        ):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        Tokenizer(self.vocab_size)  # it owns the reserved-id bound
        if self.d % self.heads != 0:
            raise ValueError(f"width d={self.d} must be divisible by heads={self.heads}")
        if not 0 <= self.K <= self.L:
            raise ValueError(f"fusion depth K={self.K} must satisfy 0 <= K <= L={self.L}")
        if self.fusion_mode not in FUSION_MODES:
            raise ValueError(f"fusion_mode must be one of {FUSION_MODES}")
        if self.fusion_mode == "early" and self.K != 0:
            raise ValueError("fusion_mode=early requires K=0")
        if self.token_pooling not in TOKEN_POOLINGS:
            raise ValueError(f"token_pooling must be one of {TOKEN_POOLINGS}")
        if self.encoder_kind not in ENCODER_KINDS:
            raise ValueError(f"encoder_kind must be one of {ENCODER_KINDS}")
        if self.token_pooling == "cls" and self.encoder_kind == "hash-bag":
            raise ValueError("token_pooling=cls needs a cls token; encoder_kind=hash-bag has none")
        if self.precision not in ("f64", "f32"):
            raise ValueError("precision must be 'f64' or 'f32'")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        for name in ("lr_lm", "lr_graph"):  # zero freezes that group's parameters
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    @property
    def dtype(self):
        import numpy as np

        return np.float64 if self.precision == "f64" else np.float32

    def num_pooling_heads(self) -> int:
        return self.K + 1


CHECKPOINT_ONLY = ("vocab_size", "gnn_layers", "precision")
# Keys of the on-disk config format, in file order: every other field.
FILE_KEYS = tuple(f.name for f in fields(Config) if f.name not in CHECKPOINT_ONLY)

# The type each config-file value parses to: that of its field's default.
_PARSE = {f.name: type(f.default) for f in fields(Config)}


def parse_config_text(text: str) -> Config:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno} is not key=value: {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in FILE_KEYS:
            raise ValueError(f"unknown config key {key!r} (line {lineno})")
        if key in values:
            raise ValueError(f"config line {lineno} repeats key {key!r}")
        parse = _PARSE[key]
        try:
            values[key] = parse(value)
        except ValueError:
            raise ValueError(
                f"config line {lineno}: {key}={value!r} is not {_KIND[parse]}"
            ) from None
    return Config(**values)


def load_config(path: str | Path) -> Config:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def config_text(cfg: Config) -> str:
    lines = [f"{key}={getattr(cfg, key)}" for key in FILE_KEYS]
    return "\n".join(lines) + "\n"


def save_config(cfg: Config, path: str | Path) -> None:
    Path(path).write_text(config_text(cfg), encoding="utf-8")
