"""Fused staging ops for batched per-parameter collectives.

A unit of ``P`` parameters sharded on dim 0 over ``F`` ranks moves
through ONE even collective by way of a *rank-major* staging buffer of
``F`` segments of ``seg`` elements:

- parameter ``p`` (``n_p`` elements, read flat) is cut into chunks of
  ``c_p = ceil(rows_p / F) * row_numel_p`` elements, so rank ``r`` owns
  ``[min(r * c_p, n_p), min((r + 1) * c_p, n_p))`` — closed form, the
  tail ranks' chunks short or empty;
- segment ``r`` is the concatenation of every parameter's ``r``-th
  chunk, in order, then filler up to ``seg = sum_p min(c_p, n_p)``
  (rank 0's segment: chunk sizes never grow with the rank).

:func:`chunk_cat` packs tensors into that buffer (``torch._chunk_cat``)
and :class:`ChunkUncat` copies a gathered buffer back out
(``torch.split_with_sizes_copy``).  Each is ONE ``Device.launch``
whose cost and access sets take ``O(P)`` host work to state; the
per-(parameter, rank) loops exist only in the numpy data movement,
which abstract mode never runs.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.ops._helpers import KernelCost, make_result
from repro.tensor import Tensor

__all__ = ["chunk_cat", "ChunkUncat"]


def _distinct(tensors) -> list[Tensor]:
    """One tensor per distinct storage, in first-seen order."""
    return list({id(t._storage): t for t in tensors}.values())


def chunk_cat(
    tensors: Sequence[Tensor],
    chunks: Sequence[int],
    factor: int,
    pad: Optional[Tensor] = None,
) -> Tensor:
    """Pack ``tensors`` into a new rank-major buffer of ``factor`` segments.

    ``chunks[i]`` is ``tensors[i]``'s chunk size in elements.  ``pad``
    supplies the filler (zeros, for a reduction) and must hold exactly
    the elements the segments fall short by; it is an input rather than
    allocated here because the caller decides how long it lives.  Not
    differentiable: staging runs under ``no_grad``.
    """
    seg = sum(min(c, t.numel) for t, c in zip(tensors, chunks))
    total = factor * seg
    short = total - sum(t.numel for t in tensors)
    have = pad.numel if pad is not None else 0
    if short != have:
        raise ValueError(f"chunk_cat needs {short} pad elements, got {have}")
    dtype = tensors[0].dtype

    def compute() -> np.ndarray:
        out = np.empty((factor, seg), dtype=dtype.np_dtype)
        fill = pad._np if pad is not None else None
        cursor = [0] * factor
        for t, c in zip(tensors, chunks):
            flat = t._np.reshape(-1)
            for r in range(factor):
                piece = flat[r * c : (r + 1) * c]
                out[r, cursor[r] : cursor[r] + piece.size] = piece
                cursor[r] += piece.size
        used = 0
        for r in range(factor):
            if cursor[r] < seg:
                out[r, cursor[r] :] = fill[used : used + seg - cursor[r]]
                used += seg - cursor[r]
        return out

    inputs = tensors if pad is None else (*tensors, pad)
    return make_result(
        compute,
        (total,),
        dtype,
        _distinct(inputs),
        cost=KernelCost(bytes_moved=2 * total * dtype.itemsize),
    )


class ChunkUncat:
    """Copy a rank-major buffer back out into fixed destination tensors.

    The inverse of :func:`chunk_cat` for destinations that persist (a
    unit's unsharded parameter storages): the kernel cost and the write
    set depend only on the destinations, so they are stated once, here,
    and every call is a single launch.
    """

    def __init__(self, outs: Sequence[Tensor], chunks: Sequence[int], factor: int):
        self._outs = tuple(outs)
        self._chunks = tuple(chunks)
        self._factor = factor
        self._cost = KernelCost(bytes_moved=2 * sum(t.nbytes for t in outs))
        self._writes = tuple(t._storage for t in _distinct(t for t in outs if t.numel))

    def __call__(self, src: Tensor) -> None:
        factor = self._factor
        if src.is_materialized:
            segments = src._np.reshape(factor, src.numel // factor)
            cursor = [0] * factor
            for out, c in zip(self._outs, self._chunks):
                flat = out._np.reshape(-1)
                for r in range(factor):
                    piece = flat[r * c : (r + 1) * c]
                    piece[...] = segments[r, cursor[r] : cursor[r] + piece.size]
                    cursor[r] += piece.size
        device = src.device
        if device.is_sim_gpu:
            device.launch(
                self._cost,
                src.dtype,
                reads=(src._storage,),
                writes=self._writes,
                label="foreach_copy_out",
            )
