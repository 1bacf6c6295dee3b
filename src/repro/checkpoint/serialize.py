"""Checkpoint shard serialization.

A shard payload (a nested structure of dicts / lists / scalars /
tensors) is encoded into one self-describing byte blob::

    MAGIC | header_len (8 bytes LE) | header JSON | tensor data region

The header records the structure; each tensor entry carries its dtype,
shape and an offset into the data region.  Tensors that are *not*
materialized (abstract-mode simulations carry shapes and costs but no
values) contribute zero data bytes — the header still records their
logical ``nbytes`` so manifests and cost models account for the real
checkpoint size.  Checksums are computed over the full blob, so a torn
write or flipped bit in either the header or the data region is caught
by the same CRC verify.
"""

from __future__ import annotations

import json
import zlib
from typing import Any

import numpy as np

from repro import dtypes
from repro.cuda.device import cpu_device, meta_device
from repro.errors import CheckpointError
from repro.tensor import Tensor, empty, tensor

__all__ = ["serialize_state", "deserialize_state", "blob_crc32", "MAGIC"]

MAGIC = b"RPCKPT1\n"


def blob_crc32(blob: bytes) -> int:
    return zlib.crc32(blob) & 0xFFFFFFFF


def _encode(obj: Any, data: list[memoryview], cursor: list[int]):
    if isinstance(obj, Tensor):
        detached = obj.detach()
        entry = {
            "__tensor__": True,
            "dtype": detached.dtype.name,
            "shape": list(detached.shape),
            "nbytes": detached.nbytes,
            "materialized": bool(detached.is_materialized),
            "offset": cursor[0],
            "stored": 0,
        }
        if detached.is_materialized:
            # Storage bytes, not logical bytes: bfloat16 is emulated in
            # float32 storage, so ``stored`` can exceed ``nbytes``.
            array = np.ascontiguousarray(detached._np, dtype=detached.dtype.np_dtype)
            entry["stored"] = array.nbytes
            data.append(memoryview(array))
            cursor[0] += array.nbytes
        return entry
    if isinstance(obj, dict):
        for key in obj:
            if not isinstance(key, str):
                raise CheckpointError(
                    f"checkpoint dict keys must be strings, got {key!r}"
                )
        return {"__dict__": {k: _encode(v, data, cursor) for k, v in obj.items()}}
    if isinstance(obj, (list, tuple)):
        return {
            "__list__": [_encode(v, data, cursor) for v in obj],
            "tuple": isinstance(obj, tuple),
        }
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise CheckpointError(f"cannot serialize {type(obj).__name__} in a checkpoint")


def serialize_state(obj: Any) -> bytes:
    """Encode a nested payload into one blob (see module docstring).

    Tensor bytes are copied once, by the final join, straight out of
    (contiguous views of) the tensors' storage.
    """
    data: list[memoryview] = []
    cursor = [0]
    header = json.dumps(_encode(obj, data, cursor)).encode("utf-8")
    return b"".join([MAGIC, len(header).to_bytes(8, "little"), header, *data])


def _decode(entry: Any, data: memoryview):
    if isinstance(entry, dict):
        if entry.get("__tensor__"):
            dtype = dtypes.get(entry["dtype"])
            shape = tuple(entry["shape"])
            if not entry["materialized"]:
                # Abstract-mode tensor: shape/dtype only.  Recreate it
                # on the meta device so downstream ``copy_`` calls are
                # no-ops exactly like the original.
                return empty(*shape, dtype=dtype, device=meta_device())
            start = entry["offset"]
            end = start + entry["stored"]
            if end > len(data):
                raise CheckpointError(
                    f"tensor data region truncated: need {end} bytes, have {len(data)}"
                )
            array = np.frombuffer(data[start:end], dtype=dtype.np_dtype).reshape(shape)
            return tensor(np.array(array), dtype=dtype, device=cpu_device())
        if "__dict__" in entry:
            return {k: _decode(v, data) for k, v in entry["__dict__"].items()}
        if "__list__" in entry:
            items = [_decode(v, data) for v in entry["__list__"]]
            return tuple(items) if entry.get("tuple") else items
    return entry


def deserialize_state(blob: bytes) -> Any:
    """Decode a blob produced by :func:`serialize_state`.

    Raises :class:`CheckpointError` on any structural damage (bad
    magic, truncated header or data region).  Bit flips that keep the
    structure parseable are *not* detected here — that is the
    checksum's job (:meth:`DistributedCheckpointStore.verify`).
    """
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint blob (bad magic)")
    if len(blob) < len(MAGIC) + 8:
        raise CheckpointError("checkpoint blob truncated before header length")
    header_len = int.from_bytes(blob[len(MAGIC) : len(MAGIC) + 8], "little")
    header_end = len(MAGIC) + 8 + header_len
    if len(blob) < header_end:
        raise CheckpointError("checkpoint blob truncated inside header")
    try:
        header = json.loads(blob[len(MAGIC) + 8 : header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"checkpoint header unreadable: {exc}") from exc
    return _decode(header, memoryview(blob)[header_end:])
