"""Small shared helpers: stable hashing, seeds, canonical JSON, atomic writes."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any


def stable_hash64(text: str) -> int:
    """Platform-stable 64-bit hash of a string (Python's hash() is salted)."""
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_seed(master: int, *tags: object) -> int:
    """Derive an independent 63-bit seed from a master seed and tags."""
    key = ":".join([str(master)] + [str(t) for t in tags])
    return stable_hash64(key) >> 1


def canonical_json(obj: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_hex(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def atomic_write_bytes(path: Path | str, data: bytes) -> None:
    """Write via a temporary file in the same directory, then rename.

    The file gets the mode a plain `open` would give it (0o666 less the
    umask), not the 0o600 that `mkstemp` creates the temporary file with.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.chmod(tmp, 0o666 & ~_current_umask())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _current_umask() -> int:
    # os.umask can only be read by setting it; restore it at once.
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write_text(path: Path | str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def round_half_away(x: float, decimals: int = 1) -> float:
    """Round with ties going away from zero (banker's rounding is wrong here)."""
    factor = 10.0**decimals
    scaled = abs(x) * factor
    import math

    rounded = math.floor(scaled + 0.5)
    return (-rounded if x < 0 else rounded) / factor
