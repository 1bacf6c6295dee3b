"""State dicts for sharded models: parameters and optimizer state.

Every optimizer state tensor (Adam's ``exp_avg``/``exp_avg_sq``) is
sharded exactly like its record's shard
(:class:`repro.fsdp.handle.ShardRecord`), so the model half and the
optimizer half are the same shard-shaped fields of the same records,
moved by four private moves:

- :func:`_snapshot` / :func:`_adopt` — sharded save and load: each rank
  keeps (restores) exactly its own shard of each field, and a field
  saved under another layout is refused with :class:`ShardLayoutError`;
- :func:`_unshard` — full save: AllGather one field of one record at a
  time (peak memory = one unsharded record) and slice it per original
  FQN, as the unwrapped model's ``state_dict()`` / optimizer would key it;
- :func:`_scatter` — full load: write the part of a per-FQN tensor that
  falls in this rank's shard (e.g. when resuming on another world size).

Scalars (Adam's ``step``) and param groups pass through as they are.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.autograd.grad_mode import no_grad
from repro.errors import FsdpError, ShardLayoutError
from repro.fsdp.api import UnitTree, unit_tree
from repro.fsdp.handle import ParamInfo, ShardRecord
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer
from repro.tensor import Tensor, tensor, zeros_like

__all__ = [
    "full_state_dict",
    "load_full_state_dict",
    "sharded_state_dict",
    "load_sharded_state_dict",
    "full_optim_state_dict",
    "load_full_optim_state_dict",
    "sharded_optim_state_dict",
    "load_sharded_optim_state_dict",
    "shard_records",
]

#: One named record: its sharded-state-dict key, the record, and its
#: bindings paired with their original-model FQNs.
NamedRecord = tuple[str, ShardRecord, list[tuple[str, ParamInfo]]]


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
    tree = unit_tree(root)
    handles = [u.handle for u in tree.units if u.handle is not None]
    units = []
    for index, handle in enumerate(handles):
        unit = []
        for record in handle.shard_records():
            named = [(_join(tree.fqns[id(b.module)], b.name), b) for b in record.param_infos]
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


def _flat_numpy(value) -> np.ndarray:
    array = value.numpy() if isinstance(value, Tensor) else np.asarray(value)
    return array.reshape(-1)


def _per_fqn(flat: np.ndarray, bindings, dtype) -> "OrderedDict[str, Tensor]":
    """Slice a record's logical buffer into one tensor per ``(fqn,
    binding)``; a binding is a live ``ParamInfo`` or a manifest
    ``ParamSpec`` (both give ``offset``, ``numel`` and ``shape``)."""
    out: "OrderedDict[str, Tensor]" = OrderedDict()
    for fqn, b in bindings:
        values = flat[b.offset : b.offset + b.numel].reshape(b.shape)
        out[fqn] = tensor(np.array(values), dtype=dtype)
    return out


def _snapshot(value, copy: bool):
    """Sharded save: a detached alias of a field, or with ``copy`` an
    independent copy of its data; a scalar passes through."""
    if not isinstance(value, Tensor):
        return value
    value = value.detach()
    if copy and value.is_materialized:
        value = tensor(value.numpy().copy(), dtype=value.dtype)
    return value


def _adopt(what: str, key: str, value, target: Tensor) -> None:
    """Sharded load: copy a saved field into ``target`` (the shard or one
    of its optimizer state tensors), refusing one that does not fit."""
    if isinstance(value, Tensor) and value.numel != target.numel:
        raise ShardLayoutError(
            f"{what} has {value.numel} elements but the model's local shard has "
            f"{target.numel} — checkpoint taken at a different world size "
            "or wrap granularity? Use repro.checkpoint.load_resharded.",
            key=key,
            expected=target.numel,
            actual=value.numel,
        )
    if target.numel:
        target.copy_(value)


def _unshard(what: str, record: ShardRecord, value: Tensor, bindings) -> "OrderedDict":
    """Full save: AllGather a shard-shaped ``value`` and slice it per FQN."""
    if value.numel != record.shard.numel:
        raise FsdpError(
            f"{what} has {value.numel} elements; expected the shard size "
            f"{record.shard.numel} — was the optimizer built after FSDP wrapping?"
        )
    full = record.gather(value)
    if not full.is_materialized:
        raise FsdpError(f"{what} requires materialized tensors")
    return _per_fqn(full._np.reshape(-1), bindings, value.dtype)


def _scatter(what: str, record: ShardRecord, binding: ParamInfo, value, target: Tensor) -> None:
    """Full load: copy into ``target`` (shard-shaped) the part of the
    per-FQN ``value`` that falls in this rank's shard — binding
    ``[offset, offset+numel)`` ∩ shard ``[shard_offset,
    shard_offset+shard.numel)``, empty when they are disjoint."""
    if not target.is_materialized:
        raise FsdpError(f"{what} requires materialized tensors")
    start = record.shard_offset
    lo = max(binding.offset, start)
    hi = max(lo, min(binding.offset + binding.numel, start + record.shard.numel))
    target._np.reshape(-1)[lo - start : hi - start] = _flat_numpy(value)[
        lo - binding.offset : hi - binding.offset
    ]


def _checked_entry(state: dict, key: str, what: str):
    """``state[key]``, or the typed refusal for a foreign layout."""
    if key not in state:
        raise ShardLayoutError(f"{what} is missing {key!r}", key=key)
    return state[key]


def _full_entry(state: dict, fqn: str, what: str):
    """``state[fqn]``, or a ``KeyError`` naming the missing FQN."""
    if fqn not in state:
        raise KeyError(f"{what} is missing {fqn!r}")
    return state[fqn]


def full_state_dict(root: Module) -> "OrderedDict[str, Tensor]":
    """Collect the unsharded, full-precision state dict (Section 4),
    identical to the unwrapped model's ``state_dict()``.  Requires
    functional (materialized) mode."""
    # Keys in registration order — a per-parameter record lists a tied
    # parameter's aliases together, wherever they were registered.
    tree = unit_tree(root)
    result: "OrderedDict[str, Tensor]" = OrderedDict.fromkeys(
        _join(tree.fqns[id(info.module)], info.name)
        for unit in tree.units
        if unit.handle is not None
        for info in unit.handle.param_infos
    )
    for _key, record, named in shard_records(root):
        result.update(_unshard("full_state_dict", record, record.shard, named))
    for name, buffer in _named_buffers_clean(tree):
        result[name] = tensor(buffer.numpy(), dtype=buffer.dtype)
    return result


def _named_buffers_clean(tree: UnitTree):
    """Every module buffer under original-model FQNs."""
    for prefix, module in tree.named_modules():
        for name, buffer in module._buffers.items():
            if buffer is None:
                continue
            yield _join(prefix, name), buffer


def load_buffers(root: Module, state: dict) -> None:
    """Restore the module buffers ``state`` names (rank-local values;
    never sharded, so they ride beside the shards in every payload)."""
    for name, buffer in _named_buffers_clean(unit_tree(root)):
        if name in state and buffer.is_materialized:
            buffer._np[...] = _flat_numpy(state[name]).reshape(buffer.shape)


def load_full_state_dict(root: Module, state: dict) -> None:
    """Scatter a full state dict into each rank's local shards."""
    for _key, record, named in shard_records(root):
        for fqn, binding in _distinct(named):
            value = _full_entry(state, fqn, "state dict")
            _scatter("load_full_state_dict", record, binding, value, record.shard)
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
            _adopt(f"shard {key!r}", key, value, record.shard)


def _group_meta(optimizer: Optimizer) -> list[dict]:
    return [
        {k: v for k, v in group.items() if k != "params"}
        for group in optimizer.param_groups
    ]


def _state_shard(param_state: dict, name: str, record: ShardRecord) -> Tensor:
    """The state tensor ``name`` of ``record``'s parameter, created on
    first use exactly as the optimizer's next step would create it
    (shaped like the sharded parameter, which for a per-parameter
    record is the dim-0 view, not the flat shard)."""
    current = param_state.get(name)
    if not isinstance(current, Tensor) or current.numel != record.shard.numel:
        current = param_state[name] = zeros_like(record.optim_param.detach())
    return current


def sharded_optim_state_dict(model: Module, optimizer: Optimizer, *, copy: bool = False) -> dict:
    """Each rank's local optimizer-state shards, keyed like
    :func:`sharded_state_dict`.

    No communication: every rank saves exactly its own shard of each
    state tensor.  ``copy=True`` snapshots the values so the checkpoint
    survives further optimizer steps — the format elastic recovery
    restores from.
    """
    state_out: "OrderedDict[str, dict]" = OrderedDict()
    for key, record, _ in shard_records(model):
        saved = optimizer.state.get(id(record.optim_param), {})
        state_out[key] = {name: _snapshot(value, copy) for name, value in saved.items()}
    return {"state": state_out, "param_groups": _group_meta(optimizer)}


def load_sharded_optim_state_dict(model: Module, optimizer: Optimizer, state_dict: dict) -> None:
    """Load shards saved by :func:`sharded_optim_state_dict` (same layout)."""
    state = state_dict["state"]
    with no_grad():
        for key, record, _ in shard_records(model):
            saved = _checked_entry(state, key, "sharded optimizer state dict")
            param_state = optimizer.state.setdefault(id(record.optim_param), {})
            for name, value in saved.items():
                if isinstance(value, Tensor):
                    target = _state_shard(param_state, name, record)
                    _adopt(f"optimizer shard {key!r}[{name!r}]", key, value, target)
                else:
                    param_state[name] = value
    for group, meta in zip(optimizer.param_groups, state_dict.get("param_groups", ())):
        for k, v in meta.items():
            if k != "params":
                group[k] = v


def full_optim_state_dict(model: Module, optimizer: Optimizer) -> dict:
    """Consolidate optimizer state, keyed by original parameter FQNs.

    Returns ``{"state": {fqn: {name: value}}, "param_groups": [...]}``
    where tensors are unsharded and scalars (e.g. Adam's ``step``) pass
    through.  Requires functional (materialized) mode.
    """
    state_out: "OrderedDict[str, dict]" = OrderedDict()
    for _key, record, named in shard_records(model):
        bindings = _distinct(named)
        saved = optimizer.state.get(id(record.optim_param), {})
        scalars = {n: v for n, v in saved.items() if not isinstance(v, Tensor)}
        entries = {fqn: dict(scalars) for fqn, _ in bindings}
        for name, value in saved.items():
            if isinstance(value, Tensor):
                what = f"optimizer state tensor {name!r} of {named[0][0]!r}"
                for fqn, full in _unshard(what, record, value, bindings).items():
                    entries[fqn][name] = full
        state_out.update(entries)
    param_groups = _group_meta(optimizer)
    for meta in param_groups:
        meta["params"] = sorted(state_out.keys())
    return {"state": state_out, "param_groups": param_groups}


def load_full_optim_state_dict(model: Module, optimizer: Optimizer, state_dict: dict) -> None:
    """Scatter a consolidated optimizer state dict into local shards."""
    state = state_dict["state"]
    for _key, record, named in shard_records(model):
        param_state = optimizer.state.setdefault(id(record.optim_param), {})
        for fqn, binding in _distinct(named):
            for name, value in _full_entry(state, fqn, "optimizer state dict").items():
                if isinstance(value, Tensor):
                    target = _state_shard(param_state, name, record)
                    _scatter("load_full_optim_state_dict", record, binding, value, target)
                else:
                    param_state[name] = value
