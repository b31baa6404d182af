import json

import pytest

from factpool.data import DatasetFormatError, QuestionRecord, load_dataset, save_dataset
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


@pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
def test_a_save_that_fails_partway_leaves_no_partial_dataset(tmp_path, monkeypatch, existing):
    # A dataset cut at a line boundary would load as a smaller dataset, so a
    # save that raises after some records must leave no file, or the old one.
    records = [
        QuestionRecord(question=f"question {i}?", candidates=["birds", "stones"], answer_index=0)
        for i in range(4)
    ]
    path = tmp_path / "dataset.jsonl"
    if existing:
        save_dataset(records, path)
        before = path.read_bytes()

    def fail():
        raise RuntimeError("serialization failed")

    monkeypatch.setattr(records[2], "to_json", fail)
    with pytest.raises(RuntimeError, match="serialization failed"):
        save_dataset(records, path)
    if existing:
        assert [p.name for p in tmp_path.iterdir()] == ["dataset.jsonl"]
        assert path.read_bytes() == before
    else:
        assert not any(tmp_path.iterdir())
