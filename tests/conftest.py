import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

CRITERION_5 = "test_criterion_05_robustness_trend"
_robustness = pytest.StashKey[tuple]()


def pytest_collection_modifyitems(items):
    # Criterion 5 only waits for its run, so it goes last: every other test
    # runs while the run does.  The sort is stable.
    items.sort(key=lambda item: item.name == CRITERION_5)


def pytest_collection_finish(session):
    """Start criterion 5's robustness run once the session has chosen its
    tests, and only if it chose that criterion: it then runs beside them."""
    if not session.config.option.collectonly and any(
        item.name == CRITERION_5 for item in session.items
    ):
        import robustness

        root = tempfile.TemporaryDirectory(prefix="robustness-")
        session.config.stash[_robustness] = (robustness.start(Path(root.name)), root)


def pytest_sessionfinish(session):
    proc, root = session.config.stash.get(_robustness, (None, None))
    if proc is not None:
        proc.kill()  # nothing if it has ended
        proc.communicate()
        root.cleanup()


@pytest.fixture(scope="session")
def robustness_results(pytestconfig):
    """Criterion 5's {kind: Metrics}, from the run started at collection."""
    import robustness

    proc = pytestconfig.stash[_robustness][0]
    return robustness.results(proc)


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
