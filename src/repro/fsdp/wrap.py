"""Auto-wrap policies (Section 4.1).

A policy decides which submodules become their own FSDP units — the
knob controlling the FlatParameter granularity and hence the
memory-throughput trade-off of Section 3.2.1 (finer units lower peak
memory, more collectives).  Wrapping follows the paper's rule: all
parameters of an annotated module go to one FlatParameter, excluding
parameters already assigned to a nested unit; residual parameters go
to the parent.

:func:`describe_wrap_plan` evaluates a policy *without* constructing
any FSDP unit: it is a dry run of the one auto-wrap walk both frontends
use (``repro.fsdp.api._auto_wrap``), so the policy sees the same
claimed parameters it would see while wrapping, and returns the
would-be units with their parameter counts.  The autotune planner uses
this to cost candidate wrap plans statically.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Type

from repro.fsdp.api import _auto_wrap, _collect_unit_params, _ignored_module_ids, _unclaimed_numel
from repro.nn.module import Module

__all__ = [
    "ModuleWrapPolicy",
    "size_based_auto_wrap_policy",
    "transformer_auto_wrap_policy",
    "policy_label",
    "WrapUnitPlan",
    "describe_wrap_plan",
]

Policy = Callable[[Module], bool]


def ModuleWrapPolicy(module_classes: Iterable[Type[Module]]) -> Policy:
    """Wrap every submodule that is an instance of the given classes.

    The conventional choice for transformers: wrap each block class, so
    FlatParameter boundaries align with execution order.
    """
    classes = tuple(module_classes)

    def policy(module: Module) -> bool:
        return isinstance(module, classes)

    policy.__wrap_label__ = "ModuleWrapPolicy(" + ",".join(
        c.__name__ for c in classes
    ) + ")"
    return policy


def size_based_auto_wrap_policy(
    min_num_params: int = 100_000_000,
    *,
    exclude_wrap_modules: Optional[Iterable[Type[Module]]] = None,
) -> Policy:
    """Wrap any submodule whose unclaimed parameters reach a size.

    Only parameters *no nested unit has claimed* count toward the
    threshold: the walk wraps children first (post-order), and counting
    a wrapped child's parameters again would make every ancestor of a
    wrapped block look oversized and wrap far too eagerly (one unit per
    level of the module tree).  Parameters of ignored modules nested in
    the submodule do count (a policy does not know them).

    ``exclude_wrap_modules`` (default: ``ModuleList``) are never
    wrapped themselves — a ``ModuleList`` is not callable, so wrapping
    it would break ``for block in self.blocks`` iteration — but the
    traversal still descends into them, so oversized children wrap
    individually (same contract as the PyTorch policy).
    """
    if exclude_wrap_modules is None:
        from repro.nn.layers import ModuleList

        exclude_wrap_modules = (ModuleList,)
    excluded = tuple(exclude_wrap_modules)

    def policy(module: Module) -> bool:
        if isinstance(module, excluded):
            return False
        return _unclaimed_numel(module) >= min_num_params

    policy.__wrap_label__ = f"size_based(min={min_num_params})"
    return policy


def transformer_auto_wrap_policy(block_classes: Iterable[Type[Module]]) -> Policy:
    """Alias of :func:`ModuleWrapPolicy` matching the PyTorch name."""
    return ModuleWrapPolicy(block_classes)


def policy_label(policy: Optional[Policy]) -> str:
    """Human-readable name for a policy (used in PerfResult rows)."""
    if policy is None:
        return "whole-model"
    label = getattr(policy, "__wrap_label__", None)
    if label is not None:
        return label
    return getattr(policy, "__name__", repr(policy))


# ----------------------------------------------------------------------
# Static wrap-plan introspection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WrapUnitPlan:
    """One would-be FSDP unit under a policy.

    Attributes:
        path: dotted module path ('' for the root residual unit).
        numel: parameters this unit would shard (excluding parameters
            of nested units and ignored modules).
    """

    path: str
    numel: int


def describe_wrap_plan(
    module: Module,
    policy: Optional[Policy],
    *,
    ignored_modules: Optional[list[Module]] = None,
) -> list[WrapUnitPlan]:
    """Units that wrapping ``module`` with ``policy`` would create.

    A dry run of the auto-wrap walk: where wrapping builds a unit, the
    dry run records it and claims its parameters for the rest of the
    walk, exactly as the unit would; every claim is withdrawn before
    returning, so the module is left as it was.  The root residual unit
    is returned *first* (it is unsharded first each iteration), followed
    by the nested units in the order the walk builds them (post-order).
    """
    ignored_ids = _ignored_module_ids(ignored_modules)
    units: list[WrapUnitPlan] = []
    claimed: list = []

    def plan(child: Module, path: str) -> Module:
        unit = WrapUnitPlan(path, _unclaimed_numel(child, ignored_ids))
        claim = weakref.ref(unit)
        for _, _, param in _collect_unit_params(child, ignored_ids):
            param._fsdp_param_owner = claim
            claimed.append(param)
        if unit.numel > 0:
            units.append(unit)
        return child

    try:
        if policy is not None:
            _auto_wrap(module, policy, plan, ignored_ids)
        root = WrapUnitPlan("", _unclaimed_numel(module, ignored_ids))
    finally:
        for param in claimed:
            param._fsdp_param_owner = None
    return [root] + units
