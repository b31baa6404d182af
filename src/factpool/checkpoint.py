"""Binary checkpoint container: header (config, seed, step) + named tensors.

Layout (all integers little-endian):
    magic b"FPCKPT01"
    u32 header length, header bytes (canonical JSON: config, seed, step, meta)
    u32 tensor count, then per tensor (sorted by name):
        u32 name length, name utf-8, u32 ndim, u64 x ndim shape,
        raw float64 little-endian data (C order)
Round-trips are exact: tensors are stored bit-for-bit.
"""

from __future__ import annotations

import io
import json
import struct
from pathlib import Path

import numpy as np

from factpool.util import atomic_write_bytes, canonical_json

_MAGIC = b"FPCKPT01"


class CheckpointError(ValueError):
    pass


def checkpoint_bytes(
    params: dict[str, np.ndarray],
    config: dict,
    seed: int,
    step: int,
    meta: dict | None = None,
) -> bytes:
    header = canonical_json(
        {"config": config, "seed": seed, "step": step, "meta": meta or {}}
    ).encode("utf-8")
    buf = io.BytesIO()
    buf.write(_MAGIC)
    buf.write(struct.pack("<I", len(header)))
    buf.write(header)
    buf.write(struct.pack("<I", len(params)))
    for name in sorted(params):
        tensor = np.ascontiguousarray(params[name], dtype="<f8")
        encoded = name.encode("utf-8")
        buf.write(struct.pack("<I", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<I", tensor.ndim))
        for dim in tensor.shape:
            buf.write(struct.pack("<Q", dim))
        buf.write(tensor.tobytes())
    return buf.getvalue()


def save_checkpoint(
    path: str | Path,
    params: dict[str, np.ndarray],
    config: dict,
    seed: int,
    step: int,
    meta: dict | None = None,
) -> None:
    atomic_write_bytes(path, checkpoint_bytes(params, config, seed, step, meta))


def load_checkpoint(path: str | Path):
    """Returns (params dict, header dict).

    Truncation, an undecodable or non-JSON header and an undecodable tensor
    name raise CheckpointError naming the path.
    """
    data = Path(path).read_bytes()
    if data[:8] != _MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file")
    offset = 8

    def take(size: int) -> int:
        nonlocal offset
        start = offset
        offset += size
        if offset > len(data):
            raise CheckpointError(
                f"{path}: truncated checkpoint ({len(data)} bytes, needs at least {offset})"
            )
        return start

    (header_len,) = struct.unpack_from("<I", data, take(4))
    start = take(header_len)
    try:
        header = json.loads(data[start:offset].decode("utf-8"))
    except ValueError as err:  # UnicodeDecodeError or JSONDecodeError
        raise CheckpointError(f"{path}: corrupt checkpoint header ({err})") from None
    (count,) = struct.unpack_from("<I", data, take(4))
    params: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", data, take(4))
        start = take(name_len)
        try:
            name = data[start:offset].decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(
                f"{path}: corrupt checkpoint tensor name at byte {start} ({err})"
            ) from None
        (ndim,) = struct.unpack_from("<I", data, take(4))
        shape = struct.unpack_from(f"<{ndim}Q", data, take(8 * ndim))
        size = int(np.prod(shape))
        tensor = np.frombuffer(data, dtype="<f8", count=size, offset=take(8 * size))
        params[name] = tensor.reshape(shape).copy()
    if offset != len(data):
        raise CheckpointError(f"{path}: trailing bytes after tensor block")
    return params, header
