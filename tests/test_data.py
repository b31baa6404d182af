import json

import pytest

from factpool.data import DatasetFormatError, load_dataset
from factpool.kg import load_kg
from factpool.synthetic import SyntheticSpec, generate_synthetic, write_synthetic
from factpool.verbalize import load_templates

GOOD = {"question": "what migrates?", "candidates": ["birds", "stones"], "answer_index": 0}


@pytest.mark.parametrize(
    "line,field",
    [
        (dict(GOOD, answer_index=1.7), "answer_index"),
        (dict(GOOD, answer_index=True), "answer_index"),
        (dict(GOOD, question=5), "question"),
        (dict(GOOD, question_entities="abc"), "question_entities"),
        (dict(GOOD, candidates=["birds", ""]), "candidates"),
        (dict(GOOD, candidates=5), "candidates"),
        (["birds", "stones"], "JSON object"),
        (dict(GOOD, candidates=[]), "at least one candidate"),
        (dict(GOOD, answer_index=2), "answer_index 2 out of range for 2 candidates"),
        (dict(GOOD, answer_entities=[["bird"]]), "one list per candidate"),
        ({k: v for k, v in GOOD.items() if k != "question"}, "missing field 'question'"),
    ],
    ids=[
        "float-answer-index",
        "bool-answer-index",
        "int-question",
        "string-question-entities",
        "empty-candidate",
        "int-candidates",
        "list-line",
        "no-candidates",
        "answer-index-past-the-end",
        "answer-entities-length",
        "missing-question",
    ],
)
def test_load_dataset_rejects_wrong_json_types(tmp_path, line, field):
    path = tmp_path / "dataset.jsonl"
    path.write_text(json.dumps(GOOD) + "\n" + json.dumps(line) + "\n", encoding="utf-8")
    with pytest.raises(DatasetFormatError) as exc:
        load_dataset(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: bad record on line 2: ")
    assert field in message


def test_synthetic_files_load_to_the_generated_records(tmp_path):
    spec = SyntheticSpec(entities=400, relations=3, questions=16, candidates=3, seed=7)
    paths = write_synthetic(spec, tmp_path)
    bench = generate_synthetic(spec)
    assert load_dataset(paths["dataset"]) == bench.records
    assert load_templates(str(paths["templates"])) == bench.templates
    assert sorted(load_kg(str(paths["kg"])).facts) == bench.facts

