"""Flat binary tensor container used for all checkpoints.

Layout: magic "ARMSNTL1", little-endian u32 tensor count, then per tensor:
u32 name length, UTF-8 name, u32 rank, u32 dims, raw little-endian float32
payload.  Round-trips are bit-exact.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"ARMSNTL1"


class CheckpointError(IOError):
    pass


def save_tensors(path: str | Path, tensors: dict[str, np.ndarray]) -> None:
    """Write named tensors; insertion order is preserved on disk."""
    chunks = [MAGIC, struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        data = np.ascontiguousarray(arr, dtype="<f4")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", data.ndim))
        chunks.append(struct.pack(f"<{data.ndim}I", *data.shape))
        chunks.append(data.tobytes())
    Path(path).write_bytes(b"".join(chunks))


def load_tensors(path: str | Path) -> dict[str, np.ndarray]:
    """Named tensors as read-only views into the one copy of the file's bytes."""
    data = Path(path).read_bytes()
    if data[:8] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {data[:8]!r}, expected {MAGIC!r}")
    raw = memoryview(data)  # slices of a memoryview copy nothing
    pos = 8

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(raw):
            raise CheckpointError(f"{path}: truncated at byte {pos} (need {n} more)")
        chunk = raw[pos:pos + n]
        pos += n
        return chunk

    (count,) = struct.unpack("<I", take(4))
    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = str(take(name_len), "utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: tensor name is not UTF-8 ({exc})") from exc
        if name in tensors:
            raise CheckpointError(f"{path}: tensor name {name!r} appears twice")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank))
        payload = take(4 * math.prod(dims))  # exact: np.prod wraps at 2**63
        try:
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims)
        except ValueError as exc:  # an empty shape whose other dims overflow
            raise CheckpointError(f"{path}: unusable dims {dims} ({exc})") from exc
    if pos != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - pos} trailing bytes after last tensor")
    return tensors
