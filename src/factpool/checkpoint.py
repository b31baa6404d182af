"""Binary tensor container for checkpoints and embedding caches.

Layout (all integers little-endian):
    8-byte magic: b"FPCKPT01" for a checkpoint, b"FPEMC002" for a cache
    u32 header length, header bytes (canonical JSON object)
    u32 tensor count, then per tensor (names strictly ascending):
        u32 name length, name utf-8, u32 ndim, u64 x ndim shape,
        raw float64 little-endian data (C order)
A checkpoint header holds config, seed, step and meta; a cache header holds
the vector width.  Round-trips are exact: tensors are stored bit-for-bit.
"""

from __future__ import annotations

import io
import json
import math
import struct
from pathlib import Path

import numpy as np

from factpool.util import atomic_write_bytes, canonical_json

_MAGIC = b"FPCKPT01"
_F8 = np.dtype("<f8")

# Magics of retired layouts, with what to do about such a file.
_RETIRED = {b"FPEMC001": "retired FPEMC001 embedding cache; rerun `factpool encode` to rebuild it"}


class CheckpointError(ValueError):
    pass


def _container_bytes(magic: bytes, header: dict, tensors: dict[str, np.ndarray]) -> bytes:
    encoded_header = canonical_json(header).encode("utf-8")
    buf = io.BytesIO()
    buf.write(magic)
    buf.write(struct.pack("<I", len(encoded_header)))
    buf.write(encoded_header)
    buf.write(struct.pack("<I", len(tensors)))
    for name in sorted(tensors):
        tensor = np.ascontiguousarray(tensors[name], dtype="<f8")
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", tensor.ndim))
        for dim in tensor.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(tensor.tobytes())
    return buf.getvalue()


def _read_container(path: str | Path, magic: bytes, kind: str):
    """Returns (tensors, header) of a `kind` file; any flaw found raises
    CheckpointError naming the path."""
    data = Path(path).read_bytes()
    if data[:8] != magic:
        if data[:8] in _RETIRED:
            raise CheckpointError(f"{path}: {_RETIRED[data[:8]]}")
        article = "an" if kind[0] in "aeiou" else "a"
        raise CheckpointError(f"{path}: not {article} {kind} file")
    offset = 8

    def take(size: int) -> int:
        nonlocal offset
        start = offset
        offset += size
        if offset > len(data):
            raise CheckpointError(
                f"{path}: truncated {kind} ({len(data)} bytes, needs at least {offset})"
            )
        return start

    (header_len,) = struct.unpack_from("<I", data, take(4))
    start = take(header_len)
    try:
        header = json.loads(data[start:offset].decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError or JSONDecodeError
        raise CheckpointError(f"{path}: corrupt {kind} header ({err})") from None
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: corrupt {kind} header (not a JSON object)")
    (count,) = struct.unpack_from("<I", data, take(4))
    tensors: dict[str, np.ndarray] = {}
    previous = None
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, take(4))
        start = take(name_len)
        try:
            name = data[start:offset].decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(
                f"{path}: corrupt {kind} tensor name at byte {start} ({err})"
            ) from None
        # The writer sorts by name: a repeated or swapped name is a corrupt file.
        if previous is not None and name <= previous:
            raise CheckpointError(
                f"{path}: {kind} tensor name {name!r} does not sort after {previous!r}"
            )
        previous = name
        (ndim,) = struct.unpack_from("<I", data, take(4))
        shape = struct.unpack_from(f"<{ndim}Q", data, take(8 * ndim))
        # math.prod and positional frombuffer arguments: np.prod or keywords
        # would cost more than the rest of a small tensor's read.
        size = math.prod(shape)
        tensor = np.frombuffer(data, _F8, size, take(8 * size))
        if not np.isfinite(tensor).all():
            raise CheckpointError(f"{path}: {kind} tensor {name!r} holds a non-finite value")
        tensors[name] = tensor.reshape(shape).copy()
    if offset != len(data):
        raise CheckpointError(f"{path}: trailing bytes after tensor block")
    return tensors, header


def save_checkpoint(
    path: str | Path,
    params: dict[str, np.ndarray],
    config: dict,
    seed: int,
    step: int,
    meta: dict | None = None,
) -> None:
    header = {"config": config, "seed": seed, "step": step, "meta": meta or {}}
    atomic_write_bytes(path, _container_bytes(_MAGIC, header, params))


def load_checkpoint(path: str | Path):
    """Returns (params dict, header dict); a bad file raises CheckpointError."""
    return _read_container(path, _MAGIC, "checkpoint")
