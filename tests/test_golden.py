"""Every CLI command's output bytes against the committed golden manifest."""

from golden import differing, environment, read_manifest, run_commands


def test_outputs_match_the_golden_manifest(tmp_path):
    header, want = read_manifest()
    moved = differing(want, run_commands(tmp_path))
    assert not moved, (
        f"{len(moved)} outputs differ from tests/golden/outputs.sha256: {moved}\n"
        f"manifest taken with: {header}\nthis run: {environment()}\n"
        "An intended change regenerates it: python -m tests.golden --write"
    )
