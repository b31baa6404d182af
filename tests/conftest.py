import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from factpool.kg import KnowledgeGraph, Fact


@pytest.fixture
def toy_kg_file(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text(
        "winter\tcauses\tbird_migration\n"
        "bird\trelated_to\tchirp\n"
        "bird\tcapable_of\tmigrate\n",
        encoding="utf-8",
    )
    return path


def kg_from_facts(facts) -> KnowledgeGraph:
    return KnowledgeGraph({f if isinstance(f, Fact) else Fact(*f) for f in facts})


def rewrite_checkpoint_config(path, **values) -> None:
    """Rewrite a saved model's config to `values`.  A vocab_size change trims
    the embedding table to match, so only the config is wrong."""
    from factpool.checkpoint import load_checkpoint, save_checkpoint

    params, header = load_checkpoint(path)
    header["config"].update(values)
    if "vocab_size" in values:
        params["tok_emb"] = params["tok_emb"][: values["vocab_size"]]
    save_checkpoint(path, params, header["config"], header["seed"], header["step"], header["meta"])


@pytest.fixture
def toy_kg(toy_kg_file):
    from factpool.kg import load_kg

    return load_kg(str(toy_kg_file))
