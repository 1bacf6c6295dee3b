"""Execution-order-driven FlatParameter planning (Section 4.2).

The paper describes an explored alternative to module-annotation
wrapping: run one (possibly inefficient) iteration while *observing the
execution order*, then reconstruct FlatParameters by coalescing
parameters along that order into well-sized groups.  This module
provides that machinery:

- :func:`record_execution_order` — run the model once with forward
  pre-hooks and return parameter-owning modules in first-use order;
- :func:`plan_flat_param_groups` — greedily coalesce consecutive
  modules into groups whose total parameter count approaches a target
  (the ``max ψ_i`` knob of the §3.2.1 memory bound);
- :func:`execution_order_policy` — an ``auto_wrap_policy`` that wraps
  the *last* module of each planned group's subtree... since units are
  module-rooted in the frontends, the policy marks each planned group
  leader; arbitrary multi-module groups can be built directly with
  :class:`~repro.fsdp.flat_param.FlatParamHandle`, which accepts any
  list of ``(module, name, param)`` triples.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.autograd.grad_mode import no_grad
from repro.nn.module import Module

__all__ = [
    "record_execution_order",
    "plan_flat_param_groups",
    "execution_order_policy",
]


def _own_param_numel(module: Module) -> int:
    return sum(p.numel for p in module._parameters.values() if p is not None)


def record_execution_order(model: Module, run: Callable[[Module], object]) -> list[Module]:
    """Observe the order in which parameter-owning modules first execute.

    ``run(model)`` should perform one representative forward pass (it
    executes under ``no_grad``).  Returns the modules that directly own
    at least one parameter, ordered by first use.
    """
    order: list[Module] = []
    seen: set[int] = set()
    handles = []

    def make_hook(module: Module):
        def hook(mod, args):
            if id(module) not in seen:
                seen.add(id(module))
                order.append(module)
            return None

        return hook

    for module in model.modules():
        if _own_param_numel(module) > 0:
            handles.append(module.register_forward_pre_hook(make_hook(module)))
    try:
        with no_grad():
            run(model)
    finally:
        for handle in handles:
            handle.remove()
    # Modules never executed (e.g. unused heads) are appended at the
    # end so every parameter still lands in some group.
    for module in model.modules():
        if _own_param_numel(module) > 0 and id(module) not in seen:
            seen.add(id(module))
            order.append(module)
    return order


def plan_flat_param_groups(
    ordered_modules: Sequence[Module], target_numel: int
) -> list[list[Module]]:
    """Coalesce consecutive modules into groups of ~``target_numel``.

    Greedy: extend the current group while it stays under the target;
    a single module larger than the target forms its own group.  The
    result controls the §3.2.1 trade-off — larger targets mean fewer
    collectives but a larger ``max ψ_i`` peak contribution.
    """
    if target_numel <= 0:
        raise ValueError("target_numel must be positive")
    groups: list[list[Module]] = []
    current: list[Module] = []
    current_numel = 0
    for module in ordered_modules:
        numel = _own_param_numel(module)
        if current and current_numel + numel > target_numel:
            groups.append(current)
            current, current_numel = [], 0
        current.append(module)
        current_numel += numel
    if current:
        groups.append(current)
    return groups


def execution_order_policy(
    model: Module, run: Callable[[Module], object], target_numel: int
) -> Callable[[Module], bool]:
    """An ``auto_wrap_policy`` derived from one observed iteration.

    Marks the subtree roots whose own-plus-descendant parameters fit
    the target; the frontends then form one FlatParameter per marked
    module, approximating the planned grouping with module-rooted
    units.
    """
    order = record_execution_order(model, run)
    groups = plan_flat_param_groups(order, target_numel)
    chosen: set[int] = set()
    for group in groups:
        for module in group:
            chosen.add(id(module))

    def policy(module: Module) -> bool:
        if id(module) in chosen:
            return True
        total = sum(p.numel for p in module.parameters())
        return 0 < total <= target_numel and any(
            id(sub) in chosen for sub in module.modules()
        )

    return policy
