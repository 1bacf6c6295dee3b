"""Optimizer state-dict gathering for sharded models.

The optimizer holds one set of state tensors (e.g. Adam's
``exp_avg``/``exp_avg_sq``) per shard record
(:class:`repro.fsdp.handle.ShardRecord`), sharded exactly like the
record's own shard.  :func:`full_optim_state_dict` AllGathers each
state tensor one record at a time and re-keys it by the original
parameter FQNs — the same consolidated format the unwrapped model's
optimizer would produce — and :func:`load_full_optim_state_dict`
scatters such a dict back into each rank's shards (e.g. when resuming
on a different world size).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.autograd.grad_mode import no_grad
from repro.errors import FsdpError
from repro.nn.module import Module
from repro.optim.optimizer import Optimizer
from repro.tensor import Tensor, tensor, zeros_like

from repro.fsdp.state_dict import (
    _check_shard_numel,
    _checked_entry,
    _distinct,
    _overlap,
    _snapshot,
    shard_records,
)

__all__ = [
    "full_optim_state_dict",
    "load_full_optim_state_dict",
    "sharded_optim_state_dict",
    "load_sharded_optim_state_dict",
]


def _group_meta(optimizer: Optimizer) -> list[dict]:
    return [
        {k: v for k, v in group.items() if k != "params"}
        for group in optimizer.param_groups
    ]


def _state_shard(param_state: dict, name: str, record) -> Tensor:
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
    :func:`repro.fsdp.state_dict.sharded_state_dict`.

    No communication: every rank saves exactly its own shard of each
    state tensor (Adam's ``exp_avg``/``exp_avg_sq`` are sharded like
    the parameter shard itself).  ``copy=True`` snapshots the values so
    the checkpoint survives further optimizer steps — the format
    elastic recovery restores from.
    """
    state_out: "OrderedDict[str, dict]" = OrderedDict()
    for key, record, _ in shard_records(model):
        state_out[key] = {
            name: _snapshot(value, copy) if isinstance(value, Tensor) else value
            for name, value in optimizer.state.get(id(record.optim_param), {}).items()
        }
    return {"state": state_out, "param_groups": _group_meta(optimizer)}


def load_sharded_optim_state_dict(model: Module, optimizer: Optimizer, state_dict: dict) -> None:
    """Load shards saved by :func:`sharded_optim_state_dict` (same layout)."""
    state = state_dict["state"]
    with no_grad():
        for key, record, _ in shard_records(model):
            saved = _checked_entry(state, key, "sharded optimizer state dict")
            param_state = optimizer.state.setdefault(id(record.optim_param), {})
            for name, value in saved.items():
                if not isinstance(value, Tensor):
                    param_state[name] = value
                    continue
                _check_shard_numel(
                    f"optimizer shard {key!r}[{name!r}]", key, value, record
                )
                current = _state_shard(param_state, name, record)
                if not current.is_materialized:
                    raise FsdpError(
                        "load_sharded_optim_state_dict requires materialized tensors"
                    )
                if value.numel:
                    current.copy_(value)
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
        gathered: dict[str, object] = {}
        scalars: dict[str, object] = {}
        for name, value in optimizer.state.get(id(record.optim_param), {}).items():
            if not isinstance(value, Tensor):
                scalars[name] = value
                continue
            if value.numel != record.shard.numel:
                raise FsdpError(
                    f"optimizer state tensor {name!r} of {named[0][0]!r} has "
                    f"{value.numel} elements; expected the shard size "
                    f"{record.shard.numel} — was the optimizer built after FSDP "
                    "wrapping?"
                )
            gathered[name] = record.gather(value).numpy().reshape(-1)
        for fqn, b in _distinct(named):
            entry = dict(scalars)
            for name, flat in gathered.items():
                entry[name] = tensor(flat[b.offset : b.offset + b.numel].reshape(b.shape))
            state_out[fqn] = entry

    param_groups = _group_meta(optimizer)
    for meta in param_groups:
        meta["params"] = sorted(state_out.keys())
    return {"state": state_out, "param_groups": param_groups}


def load_full_optim_state_dict(model: Module, optimizer: Optimizer, state_dict: dict) -> None:
    """Scatter a consolidated optimizer state dict into local shards."""
    state = state_dict["state"]
    with no_grad():
        for _key, record, named in shard_records(model):
            param_state = optimizer.state.setdefault(id(record.optim_param), {})
            for fqn, binding in _distinct(named):
                if fqn not in state:
                    raise KeyError(f"optimizer state dict is missing {fqn!r}")
                dst, src = _overlap(record, binding)
                for name, value in state[fqn].items():
                    if not isinstance(value, Tensor):
                        param_state[name] = value
                        continue
                    shard = _state_shard(param_state, name, record)
                    if dst.start == dst.stop:
                        continue
                    if not shard.is_materialized:
                        raise FsdpError(
                            "load_full_optim_state_dict requires materialized tensors"
                        )
                    shard._np.reshape(-1)[dst] = value.numpy().reshape(-1)[src]
