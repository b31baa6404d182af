import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


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


@pytest.fixture
def toy_kg(toy_kg_file):
    from factpool.kg import load_kg

    return load_kg(str(toy_kg_file))
