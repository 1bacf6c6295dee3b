"""State-dict collection for sharded models.

Two flavours, mirroring ``torch.distributed.fsdp``:

- :func:`full_state_dict` — every rank AllGathers full-precision
  parameters one unit at a time (peak memory = one unsharded unit) and
  returns original-FQN → tensor, identical to the unwrapped model's
  ``state_dict()``;
- :func:`sharded_state_dict` — each rank returns only its local shards
  (cheap; pair with :func:`load_sharded_state_dict`).

:func:`load_full_state_dict` scatters a full state dict back into the
local shards.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.errors import FsdpError, ShardLayoutError
from repro.fsdp.api import FullyShardedDataParallel, _handles_under
from repro.fsdp.handle import ParamInfo, ShardRecord
from repro.nn.module import Module
from repro.tensor import Tensor, tensor

__all__ = [
    "full_state_dict",
    "load_full_state_dict",
    "sharded_state_dict",
    "load_sharded_state_dict",
    "shard_records",
]

#: One named record: its sharded-state-dict key, the record, and its
#: bindings paired with their original-model FQNs.
NamedRecord = tuple[str, ShardRecord, list[tuple[str, ParamInfo]]]


def _module_fqns(root: Module) -> dict[int, str]:
    """Map module ids to original-model FQNs, skipping FSDP wrappers."""
    # Pre-order walk on an explicit stack (a recursive closure would be
    # a reference cycle per call).
    mapping: dict[int, str] = {}
    pending: list[tuple[Module, str]] = [(root, "")]
    while pending:
        module, prefix = pending.pop()
        if isinstance(module, FullyShardedDataParallel):
            pending.append((module.module, prefix))
            continue
        mapping[id(module)] = prefix
        children = [
            (child, f"{prefix}.{name}" if prefix else name)
            for name, child in module._modules.items()
            if child is not None
        ]
        pending.extend(reversed(children))
    return mapping


def _join(prefix: str, name: str) -> str:
    return f"{prefix}.{name}" if prefix else name


def unit_records(root: Module) -> list[list[NamedRecord]]:
    """Every persistent shard under ``root``, named and grouped by
    FSDP unit.

    Everything that saves, loads, gathers or describes sharded state
    iterates the result and talks to
    :class:`~repro.fsdp.handle.ShardRecord` only; which handle class
    produced a record never matters.
    """
    fqns = _module_fqns(root)
    units = []
    for index, handle in enumerate(_handles_under(root)):
        unit = []
        for record in handle.shard_records():
            named = [(_join(fqns[id(b.module)], b.name), b) for b in record.param_infos]
            unit.append((record.shard_key(index, named[0][0]), record, named))
        units.append(unit)
    return units


def shard_records(root: Module) -> list[NamedRecord]:
    """:func:`unit_records`, flattened (sharded-state-dict order)."""
    return [entry for unit in unit_records(root) for entry in unit]


def _distinct(named: list[tuple[str, ParamInfo]]) -> list[tuple[str, ParamInfo]]:
    """One binding per parameter: a tied parameter loads from (and its
    optimizer state is keyed by) its first FQN."""
    first: dict[int, tuple[str, ParamInfo]] = {}
    for fqn, binding in named:
        first.setdefault(binding.offset, (fqn, binding))
    return list(first.values())


def _overlap(record: ShardRecord, binding: ParamInfo) -> tuple[slice, slice]:
    """Where ``binding`` meets this rank's shard: ``(slice of the flat
    shard, slice of the flat parameter)`` — empty when they are disjoint."""
    start = record.shard_offset
    lo = max(binding.offset, start)
    hi = max(lo, min(binding.offset + binding.numel, start + record.shard.numel))
    return slice(lo - start, hi - start), slice(lo - binding.offset, hi - binding.offset)


def _flat_numpy(value) -> np.ndarray:
    array = value.numpy() if isinstance(value, Tensor) else np.asarray(value)
    return array.reshape(-1)


def _snapshot(value: Tensor, copy: bool) -> Tensor:
    """Detached alias of ``value``, or an independent copy of its data."""
    value = value.detach()
    if copy and value.is_materialized:
        value = tensor(value.numpy().copy(), dtype=value.dtype)
    return value


def full_state_dict(root: Module) -> "OrderedDict[str, Tensor]":
    """Collect the unsharded, full-precision state dict (Section 4).

    Records are gathered one at a time so peak memory stays at one
    unsharded record.  Requires functional (materialized) mode.
    """
    # Keys in registration order — a per-parameter record lists a tied
    # parameter's aliases together, wherever they were registered.
    fqns = _module_fqns(root)
    result: "OrderedDict[str, Tensor]" = OrderedDict.fromkeys(
        _join(fqns[id(info.module)], info.name)
        for handle in _handles_under(root)
        for info in handle.param_infos
    )
    for _key, record, named in shard_records(root):
        full = record.gather(record.shard)
        if not full.is_materialized:
            raise FsdpError("full_state_dict requires materialized tensors")
        flat = full._np.reshape(-1)
        for fqn, b in named:
            values = flat[b.offset : b.offset + b.numel].reshape(b.shape)
            result[fqn] = tensor(np.array(values), dtype=record.shard.dtype)
        del full
    for name, buffer in _named_buffers_clean(root, fqns):
        result[name] = tensor(buffer.numpy(), dtype=buffer.dtype)
    return result


def _named_buffers_clean(root: Module, fqns: dict[int, str]):
    for module in root.modules():
        if id(module) not in fqns:
            continue
        for name, buffer in module._buffers.items():
            if buffer is None:
                continue
            yield _join(fqns[id(module)], name), buffer


def load_buffers(root: Module, state: dict) -> None:
    """Restore the module buffers ``state`` names (rank-local values;
    never sharded, so they ride beside the shards in every payload)."""
    for name, buffer in _named_buffers_clean(root, _module_fqns(root)):
        if name in state and buffer.is_materialized:
            buffer._np[...] = _flat_numpy(state[name]).reshape(buffer.shape)


def load_full_state_dict(root: Module, state: dict) -> None:
    """Scatter a full state dict into each rank's local shards."""
    for _key, record, named in shard_records(root):
        if not record.shard.is_materialized:
            raise FsdpError("load_full_state_dict requires materialized tensors")
        shard = record.shard._np.reshape(-1)
        for fqn, binding in _distinct(named):
            if fqn not in state:
                raise KeyError(f"state dict is missing {fqn!r}")
            dst, src = _overlap(record, binding)
            shard[dst] = _flat_numpy(state[fqn])[src]
    load_buffers(root, state)


def sharded_state_dict(root: Module, *, copy: bool = False) -> "OrderedDict[str, Tensor]":
    """Each rank's local shards, keyed by record.

    With ``copy=False`` the returned tensors alias the live shards
    (cheap, suitable for immediate serialization).  Checkpoints that
    must survive further training steps need ``copy=True`` — elastic
    recovery restores from these snapshots after a rank failure.
    """
    return OrderedDict(
        (key, _snapshot(record.shard, copy)) for key, record, _ in shard_records(root)
    )


def _checked_entry(state: dict, key: str, what: str):
    """``state[key]``, or the typed refusal for a foreign layout."""
    if key not in state:
        raise ShardLayoutError(f"{what} is missing {key!r}", key=key)
    return state[key]


def _check_shard_numel(what: str, key: str, value: Tensor, record: ShardRecord) -> None:
    """Refuse a saved tensor that does not fit ``record``'s local shard."""
    if value.numel != record.shard.numel:
        raise ShardLayoutError(
            f"{what} has {value.numel} elements but the model's local shard has "
            f"{record.shard.numel} — checkpoint taken at a different world size "
            "or wrap granularity? Use repro.checkpoint.load_resharded.",
            key=key,
            expected=record.shard.numel,
            actual=value.numel,
        )


def load_sharded_state_dict(root: Module, state: dict) -> None:
    """Load shards saved by :func:`sharded_state_dict` (same layout).

    Raises :class:`ShardLayoutError` (a :class:`KeyError` subclass) when
    the state dict was saved under a different layout — missing record
    keys or shard-size mismatches from a different world size or wrap
    granularity.  Such checkpoints must go through
    :func:`repro.checkpoint.load_resharded` instead.
    """
    with no_grad():
        for key, record, _ in shard_records(root):
            value = _checked_entry(state, key, "sharded state dict")
            if isinstance(value, Tensor):
                _check_shard_numel(f"shard {key!r}", key, value, record)
            if record.shard.numel:
                record.shard.copy_(value)
