"""Resharded checkpoint restore: N ranks → M ranks, any wrap granularity.

A sharded checkpoint is a set of per-rank chunks — one per shard
record (:class:`repro.fsdp.handle.ShardRecord`) — plus the
:class:`~repro.checkpoint.manifest.UnitLayout` metadata describing how
each record's logical buffer was laid out and chunked at save time.
That metadata is enough to reverse the layout entirely offline:

1. **reassemble** — for every record, concatenate its saved chunks in
   shard-index order, drop the padding, and slice the unpadded buffer
   back into per-FQN logical tensors using the recorded ``ParamSpec``
   offsets (the paper's §4.1 sharded state dict, run in reverse);
2. **scatter** — hand the resulting consolidated state dicts to
   :func:`repro.fsdp.state_dict.load_full_state_dict` and
   :func:`repro.fsdp.optim_state.load_full_optim_state_dict`, which
   already know how to slice logical tensors into whatever layout the
   *restoring* model uses.

Because step 1 depends only on the manifest and step 2 only on the new
model, the two layouts never need to agree: world size, sharding
factor, wrap granularity and sharding backend can all change between
save and restore, and optimizer state (sharded identically to its
record) rides along for free.  No communication is involved — every restoring rank
reads the shards it needs and keeps only its own slice.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

import numpy as np

from repro import dtypes
from repro.checkpoint.manifest import CheckpointManifest, ParamSpec, UnitLayout
from repro.errors import CheckpointError, ShardLayoutError
from repro.fsdp.optim_state import (
    load_full_optim_state_dict,
    load_sharded_optim_state_dict,
    sharded_optim_state_dict,
)
from repro.fsdp.state_dict import (
    _module_fqns,
    _named_buffers_clean,
    load_buffers,
    load_full_state_dict,
    load_sharded_state_dict,
    shard_records,
    sharded_state_dict,
    unit_records,
)
from repro.nn.module import Module
from repro.tensor import Tensor, tensor

__all__ = [
    "unit_layouts",
    "snapshot_payload",
    "load_payload",
    "assemble_full_state",
    "load_resharded",
    "layouts_match",
]


def unit_layouts(root: Module) -> tuple[UnitLayout, ...]:
    """Describe the model's current shard layout for a manifest."""
    layouts: list[UnitLayout] = []
    for unit in unit_records(root):
        described = []
        for key, record, named in unit:
            # Tied bindings of one parameter appear once per distinct FQN.
            specs = {
                (fqn, b.offset): ParamSpec(
                    fqn=fqn, shape=tuple(b.shape), numel=b.numel, offset=b.offset
                )
                for fqn, b in named
            }
            described.append(
                UnitLayout(
                    key=key,
                    label=record.label,
                    total_numel=record.total_numel,
                    padded_numel=record.padded_numel,
                    factor=record.sharding_factor,
                    shard_numel=record.layout_shard_numel,
                    dtype=record.shard.dtype.name,
                    params=tuple(specs.values()),
                )
            )
        # Within a unit, records are listed by key: units that group the
        # same FQN-keyed records differently then describe them alike.
        layouts.extend(sorted(described, key=lambda u: u.key))
    return tuple(layouts)


def snapshot_payload(
    root: Module, optimizer: Optional[object] = None, *, copy: bool = True
) -> dict:
    """One rank's checkpoint payload: model + optimizer shards + metadata.

    ``shard_index`` records which chunk of each record's logical buffer
    this rank holds — under hybrid layouts that need not equal the
    global rank, and reassembly keys chunks by it, not by saver rank.
    """
    payload: dict = {
        "model": sharded_state_dict(root, copy=copy),
        "shard_index": {
            key: record.shard_index for key, record, _ in shard_records(root)
        },
    }
    if optimizer is not None:
        payload["optim"] = sharded_optim_state_dict(root, optimizer, copy=copy)
    buffers = {
        name: buffer.detach()
        for name, buffer in _named_buffers_clean(root, _module_fqns(root))
        if buffer.is_materialized
    }
    if buffers:
        payload["buffers"] = buffers
    return payload


def load_payload(root: Module, optimizer: Optional[object], payload: dict) -> None:
    """Adopt one same-layout payload: model shards, optimizer shards, buffers.

    The inverse of :func:`snapshot_payload`, and the only code that
    restores one: a same-layout checkpoint restore loads this rank's
    own saved payload, a peer heal loads a replica's deposit.  Raises
    :class:`ShardLayoutError` when the payload was saved under another
    layout (go through :func:`load_resharded`).
    """
    load_sharded_state_dict(root, payload["model"])
    if optimizer is not None and "optim" in payload:
        load_sharded_optim_state_dict(root, optimizer, payload["optim"])
    load_buffers(root, payload.get("buffers", {}))


def _chunks_by_index(
    unit: UnitLayout, payloads: dict[int, dict], section: str, name: str = ""
) -> list[np.ndarray]:
    """Collect one chunk per shard index for a unit, in index order."""
    chunks: dict[int, np.ndarray] = {}
    for rank, payload in payloads.items():
        index = payload.get("shard_index", {}).get(unit.key, rank)
        if index in chunks:
            continue  # replica under a hybrid layout
        if section == "model":
            entry = payload.get("model", {}).get(unit.key)
        else:
            entry = payload.get("optim", {}).get("state", {}).get(unit.key, {}).get(name)
        if entry is None:
            continue
        if not isinstance(entry, Tensor) or not entry.is_materialized:
            raise CheckpointError(
                f"resharded restore requires materialized shard tensors "
                f"(unit {unit.key!r}, rank {rank})"
            )
        chunks[index] = entry.numpy().reshape(-1)
    missing = [i for i in range(unit.factor) if i not in chunks]
    if missing:
        raise CheckpointError(
            f"unit {unit.key!r}: missing shard chunk(s) {missing} "
            f"(need {unit.factor}, have {sorted(chunks)})"
        )
    return [chunks[i] for i in range(unit.factor)]


def _slice_params(
    unit: UnitLayout, flat: np.ndarray, dtype: dtypes.DType
) -> "OrderedDict[str, Tensor]":
    out: "OrderedDict[str, Tensor]" = OrderedDict()
    for spec in unit.params:
        values = flat[spec.offset : spec.offset + spec.numel].reshape(spec.shape)
        out[spec.fqn] = tensor(np.array(values), dtype=dtype)
    return out


def assemble_full_state(
    manifest: CheckpointManifest, payloads: dict[int, dict]
) -> tuple[dict, Optional[dict]]:
    """Rebuild consolidated (full) model + optimizer state dicts.

    ``payloads`` maps saver rank → deserialized payload (from
    :meth:`DistributedCheckpointStore.read_all`).  Returns
    ``(model_state, optim_state)``; ``optim_state`` is ``None`` when no
    payload carried optimizer state.
    """
    if not manifest.units:
        raise CheckpointError(
            f"manifest for iteration {manifest.iteration} has no unit layouts; "
            "cannot reshard"
        )
    model_state: "OrderedDict[str, Tensor]" = OrderedDict()
    optim_entries: "OrderedDict[str, dict]" = OrderedDict()
    have_optim = any("optim" in p for p in payloads.values())
    for unit in manifest.units:
        dtype = dtypes.get(unit.dtype)
        chunks = _chunks_by_index(unit, payloads, "model")
        flat = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
        if flat.size != unit.padded_numel:
            raise CheckpointError(
                f"unit {unit.key!r}: reassembled {flat.size} elements, "
                f"manifest declares {unit.padded_numel}"
            )
        model_state.update(_slice_params(unit, flat[: unit.total_numel], dtype))

        if not have_optim:
            continue
        # Tensor state names + scalars from any payload holding this unit.
        names: set[str] = set()
        scalars: dict[str, object] = {}
        for payload in payloads.values():
            entry = payload.get("optim", {}).get("state", {}).get(unit.key)
            if not entry:
                continue
            for name, value in entry.items():
                if isinstance(value, Tensor):
                    names.add(name)
                else:
                    scalars[name] = value
        per_fqn: dict[str, dict] = {
            spec.fqn: dict(scalars) for spec in unit.params
        }
        for name in sorted(names):
            chunks = _chunks_by_index(unit, payloads, "optim", name)
            flat = np.concatenate(chunks) if len(chunks) > 1 else chunks[0]
            sliced = _slice_params(unit, flat[: unit.total_numel], dtype)
            for fqn, value in sliced.items():
                per_fqn[fqn][name] = value
        optim_entries.update(per_fqn)

    optim_state: Optional[dict] = None
    if have_optim:
        param_groups = []
        for payload in payloads.values():
            groups = payload.get("optim", {}).get("param_groups")
            if groups:
                param_groups = [dict(g) for g in groups]
                break
        for group in param_groups:
            group["params"] = sorted(optim_entries.keys())
        optim_state = {"state": optim_entries, "param_groups": param_groups}

    for payload in payloads.values():
        for fqn, buffer in payload.get("buffers", {}).items():
            model_state.setdefault(fqn, buffer)
    return model_state, optim_state


def layouts_match(root: Module, manifest: CheckpointManifest) -> bool:
    """True when the model's live layout equals the manifest's exactly
    (same record keys, sharding factors and chunk sizes) — the cheap
    same-layout load path applies and no reassembly is needed.

    Records are compared by key, not position: a flat-parameter key
    encodes its unit's place in the wrap order, a per-parameter key only
    the FQN, so a model that regroups the same per-parameter records
    into different units still matches.
    """
    live = {u.key: u for u in unit_layouts(root)}
    saved = {u.key: u for u in manifest.units}
    return (
        len(saved) == len(manifest.units)
        and live.keys() == saved.keys()
        and all(
            live[k].factor == saved[k].factor
            and live[k].shard_numel == saved[k].shard_numel
            and live[k].padded_numel == saved[k].padded_numel
            for k in live
        )
    )


def load_resharded(
    root: Module,
    optimizer: Optional[object] = None,
    *,
    manifest: CheckpointManifest,
    payloads: dict[int, dict],
) -> None:
    """Restore a checkpoint into a model of *any* layout.

    Fast path: when the live layout matches the manifest and this
    rank's original shard is present, load it directly.  Otherwise
    reassemble per-FQN logical tensors and scatter them through the
    full-state loaders.
    """
    records = shard_records(root)
    if records and layouts_match(root, manifest):
        payload = payloads.get(records[0][1].shard_index)
        if payload is not None and "model" in payload:
            load_payload(root, optimizer, payload)
            return
    model_state, optim_state = assemble_full_state(manifest, payloads)
    try:
        load_full_state_dict(root, model_state)
    except KeyError as exc:
        raise ShardLayoutError(
            f"checkpoint from iteration {manifest.iteration} does not cover the "
            f"restoring model: {exc}",
            key=str(exc),
        ) from exc
    if optimizer is not None and optim_state is not None:
        load_full_optim_state_dict(root, optimizer, optim_state)
