"""Hash-bucket tokenizer for the compact QA transformer.

Text is lowercased and split on non-alphanumerics; each token maps to a fixed
bucket id through a platform-stable hash.  Ids 0..3 are reserved for the
special tokens and never collide with buckets.
"""

from __future__ import annotations

from dataclasses import dataclass

from factpool.data import DatasetFormatError
from factpool.kg import text_tokens
from factpool.util import stable_hash64

GRAPH_ID = 0
CLS_ID = 1
SEP_ID = 2
PAD_ID = 3
_NUM_RESERVED = 4


@dataclass(frozen=True)
class Tokenizer:
    vocab_size: int = 2048

    def __post_init__(self) -> None:
        if self.vocab_size <= _NUM_RESERVED:
            raise ValueError(
                f"vocab_size must exceed the {_NUM_RESERVED} reserved token ids, "
                f"got {self.vocab_size}"
            )

    def token_id(self, token: str) -> int:
        return _NUM_RESERVED + stable_hash64(token) % (self.vocab_size - _NUM_RESERVED)

    def encode_text(self, text: str) -> list[int]:
        return [self.token_id(tok) for tok in text_tokens(text)]


def tokenize_statement(
    context: str,
    question: str,
    candidate: str,
    tokenizer: Tokenizer,
    max_tokens: int,
) -> list[int]:
    """Build `[GRAPH][CLS] context [SEP] question [SEP] candidate` ids.

    The question is never truncated: DatasetFormatError names a question
    with no token or one that cannot fit on its own.  Overflow is absorbed
    by dropping context tokens first, oldest first, then trimming the
    candidate from its end.
    """
    if not text_tokens(question):
        raise DatasetFormatError(f"question {question!r} has no token; it must be non-empty")
    q_ids = tokenizer.encode_text(question)
    c_ids = tokenizer.encode_text(context)
    a_ids = tokenizer.encode_text(candidate)
    # [GRAPH][CLS] .. [SEP] question [SEP] is the incompressible skeleton.
    skeleton = 4 + len(q_ids)
    if skeleton > max_tokens:
        raise DatasetFormatError(
            f"question {question!r} alone needs {skeleton} tokens, "
            f"exceeding max_tokens={max_tokens}"
        )
    budget = max_tokens - skeleton
    if len(c_ids) + len(a_ids) > budget:
        keep_a = min(len(a_ids), budget)
        keep_c = budget - keep_a
        c_ids = c_ids[len(c_ids) - keep_c :] if keep_c else []
        a_ids = a_ids[:keep_a]
    return [GRAPH_ID, CLS_ID] + c_ids + [SEP_ID] + q_ids + [SEP_ID] + a_ids
