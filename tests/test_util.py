import os
import stat

import pytest

from factpool.util import (
    atomic_write_text,
    canonical_json,
    derive_seed,
    round_half_away,
    sha256_hex,
    stable_hash64,
)


def test_stable_hash_is_deterministic():
    assert stable_hash64("bird") == stable_hash64("bird")
    assert stable_hash64("bird") != stable_hash64("birds")


def test_derive_seed_spreads_by_tag():
    seeds = {derive_seed(1, tag) for tag in ("init", "shuffle", "encoder")}
    assert len(seeds) == 3
    assert all(s >= 0 for s in seeds)


def test_canonical_json_sorted():
    assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_round_half_away():
    assert round_half_away(2.25, 1) == 2.3
    assert round_half_away(-2.25, 1) == -2.3
    assert round_half_away(0.04, 1) == 0.0
    assert round_half_away(-4.8316, 1) == -4.8


def test_atomic_write(tmp_path):
    target = tmp_path / "nested" / "file.txt"
    atomic_write_text(target, "hello")
    assert target.read_text() == "hello"
    leftovers = [p for p in (tmp_path / "nested").iterdir() if p != target]
    assert leftovers == []


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_atomic_write_mode_follows_umask(tmp_path, umask, mode):
    previous = os.umask(umask)
    try:
        atomic_write_text(tmp_path / "file.txt", "hello")
    finally:
        os.umask(previous)
    assert stat.S_IMODE((tmp_path / "file.txt").stat().st_mode) == mode


def test_sha256_hex():
    assert sha256_hex("abc") == sha256_hex(b"abc")
    assert len(sha256_hex("abc")) == 64
