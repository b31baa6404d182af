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


@pytest.fixture
def toy_kg(toy_kg_file):
    from factpool.kg import load_kg

    return load_kg(str(toy_kg_file))
