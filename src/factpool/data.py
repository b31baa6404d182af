"""Question records: one JSON object per line.

Fields: question (str), candidates (list of non-empty str), answer_index
(int, not bool), plus optional context (str), pre-linked entity lists
`question_entities` (list[str]) and `answer_entities` (list[list[str]],
one list per candidate), and meta (object).  `load_dataset` checks each
field's JSON type.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from pathlib import Path

from factpool.util import atomic_write_text


@dataclass
class QuestionRecord:
    question: str
    candidates: list[str]
    answer_index: int
    context: str = ""
    question_entities: list[str] | None = None
    answer_entities: list[list[str]] | None = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.candidates) < 1:
            raise ValueError("record needs at least one candidate")
        if not 0 <= self.answer_index < len(self.candidates):
            raise ValueError(
                f"answer_index {self.answer_index} out of range for "
                f"{len(self.candidates)} candidates"
            )
        if self.answer_entities is not None and len(self.answer_entities) != len(self.candidates):
            raise ValueError("answer_entities must have one list per candidate")

    def to_json(self) -> str:
        payload = {
            "context": self.context,
            "question": self.question,
            "candidates": self.candidates,
            "answer_index": self.answer_index,
        }
        if self.question_entities is not None:
            payload["question_entities"] = self.question_entities
        if self.answer_entities is not None:
            payload["answer_entities"] = self.answer_entities
        if self.meta:
            payload["meta"] = self.meta
        return json.dumps(payload, sort_keys=True)


class DatasetFormatError(ValueError):
    """A dataset line that is not a question record, naming path, line and
    field; or a question the tokenizer cannot fit, naming the question."""


def _is_str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# field -> (required, JSON type check, what the check wants)
_FIELDS = {
    "question": (True, lambda v: isinstance(v, str), "a string"),
    "candidates": (
        True,
        lambda v: _is_str_list(v) and all(map(str.strip, v)),
        "a list of non-empty strings",
    ),
    "answer_index": (True, _is_int, "an integer"),
    "context": (False, lambda v: isinstance(v, str), "a string"),
    "question_entities": (False, _is_str_list, "a list of strings"),
    "answer_entities": (
        False,
        lambda v: isinstance(v, list) and all(map(_is_str_list, v)),
        "a list of string lists",
    ),
    "meta": (False, lambda v: isinstance(v, dict), "an object"),
}


def record_from_dict(obj) -> QuestionRecord:
    """A record from one parsed JSON line; ValueError names the first field
    that is missing or of the wrong JSON type."""
    if not isinstance(obj, dict):
        raise ValueError(f"a record must be a JSON object, not {type(obj).__name__}")
    for name, (required, valid, wanted) in _FIELDS.items():
        if name not in obj:
            if required:
                raise ValueError(f"missing field {name!r}")
        elif not valid(obj[name]):
            raise ValueError(f"field {name!r} must be {wanted}: {reprlib.repr(obj[name])}")
    return QuestionRecord(
        question=obj["question"],
        candidates=obj["candidates"],
        answer_index=obj["answer_index"],
        context=obj.get("context", ""),
        question_entities=obj.get("question_entities"),
        answer_entities=obj.get("answer_entities"),
        meta=obj.get("meta", {}),
    )


def load_dataset(path: str | Path) -> list[QuestionRecord]:
    """One record per non-blank line; DatasetFormatError names the path,
    the line and the field of the first bad record."""
    records = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                records.append(record_from_dict(json.loads(line)))
            except ValueError as exc:
                raise DatasetFormatError(f"{path}: bad record on line {lineno}: {exc}") from exc
    return records


def require_training_candidates(records: list[QuestionRecord], path: str | Path) -> None:
    """DatasetFormatError naming `path` and the first record with one
    candidate: a softmax over a single score leaves nothing to train."""
    for record in records:
        if len(record.candidates) < 2:
            raise DatasetFormatError(
                f"{path}: question {record.question!r} has one candidate; "
                "training needs at least two"
            )


def save_dataset(records: list[QuestionRecord], path: str | Path) -> None:
    atomic_write_text(path, "".join(record.to_json() + "\n" for record in records))
