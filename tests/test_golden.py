"""Every CLI command's output bytes against the committed golden manifest."""

import pytest
from golden import (
    WIDE,
    differing,
    environment,
    read_manifest,
    run_commands,
    start_wide,
    wide_digests,
)


@pytest.fixture(scope="module", autouse=True)
def wide_run(tmp_path_factory):
    """The wide tier's subprocess, started before the first test so that it
    runs beside the d=16 commands."""
    proc = start_wide(tmp_path_factory.mktemp("wide"))
    yield proc
    proc.kill()  # nothing if it has ended
    proc.communicate()


def _check(want: dict[str, str], got: dict[str, str]) -> None:
    moved = differing(want, got)
    assert not moved, (
        f"{len(moved)} outputs differ from tests/golden/outputs.sha256: {moved}\n"
        f"manifest taken with: {read_manifest()[0]}\nthis run: {environment()}\n"
        "An intended change regenerates it: python -m tests.golden --write"
    )


def _section(wide: bool) -> dict[str, str]:
    return {k: v for k, v in read_manifest()[1].items() if k.startswith(WIDE) == wide}


def test_outputs_match_the_golden_manifest(tmp_path):
    _check(_section(wide=False), run_commands(tmp_path))


def test_wide_outputs_match_the_golden_manifest(wide_run):
    """The d=64 section: one acceptance-config epoch of every kind, one BLAS thread."""
    _check(_section(wide=True), wide_digests(wide_run))
