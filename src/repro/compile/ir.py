"""Captured IR of one FSDP training step.

The graph is a linearized record of everything one eager iteration
launched: per-unit forward/backward compute, every AllGather and
ReduceScatter with its payload size and process group, the
compute-stream waits that order kernels after their parameters'
AllGather, and the reshard frees that return unsharded storage to the
caching allocator.

Two properties make this IR sufficient for the compiler passes:

- FSDP communication has no *data* dependencies inside an iteration
  beyond ``iter_begin`` (an AllGather reads the local shard written by
  the previous optimizer step) and the producing backward compute (a
  ReduceScatter reads gradients), so collectives can move freely as
  long as every consumer keeps a wait edge and every producer stays
  upstream — exactly what :mod:`repro.compile.verify` checks;
- program order of compute nodes is fixed (the compiler never reorders
  compute), so scheduling reduces to picking a *trigger* program point
  for each collective.

Triggers are ``(point, unit_label)`` pairs naming CPU-side hook
positions the executor can act at: ``("iter_begin", "")``,
``("pre_forward", u)``, ``("post_forward", u)``, ``("pre_backward",
u)``, ``("post_backward", u)``, ``("finalize", "")``.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

__all__ = ["Graph", "Node", "NodeKind", "Trigger"]

Trigger = tuple  # (point: str, unit_label: str)


class NodeKind(enum.Enum):
    ITER_BEGIN = "iter_begin"
    COMPUTE_FWD = "compute_fwd"
    COMPUTE_BWD = "compute_bwd"
    ALL_GATHER = "all_gather"
    REDUCE_SCATTER = "reduce_scatter"
    WAIT = "wait"
    RESHARD = "reshard"
    FINALIZE = "finalize"


@dataclass
class Node:
    id: int
    kind: NodeKind
    #: Owning unit label for compute/wait/reshard nodes; first bucket
    #: member for collectives.
    unit: str = ""
    #: Bucket members in consumption order (collectives only).  A
    #: freshly captured collective has exactly one member.
    units: tuple = ()
    #: Total collective payload in bytes (sum over members).
    nbytes: int = 0
    member_nbytes: tuple = ()
    #: Captured unshard reason ("forward", "pre_backward", ...).
    reason: str = ""
    #: "forward" | "backward" for AllGather nodes.
    phase: str = ""
    #: Program point where the node is issued / takes effect.
    trigger: Trigger = ("", "")
    #: IDs of nodes that must execute before this one.
    deps: set = field(default_factory=set)
    #: Process-group identity: collectives may only coalesce within one
    #: group (SPMD peers must agree on the merged launch).
    group_key: int = 0
    dtype: str = ""
    #: WAIT only: id of the collective whose event is waited on.
    target: int = -1
    #: Liveness accounting (bytes).  Collectives allocate their
    #: unsharded output at issue; reshard nodes free it.  Forward
    #: compute records the unit's activation footprint split into
    #: ``saved`` (held until the unit's backward) and ``transient``
    #: (its peak inside the unit's own forward), as the capture
    #: measured them (``CaptureHook.footprints``).
    alloc_bytes: int = 0
    free_bytes: int = 0
    saved_bytes: int = 0
    transient_bytes: int = 0
    #: Set by passes instead of deleting, so node ids stay stable and
    #: WAIT targets / dep sets never dangle.
    removed: bool = False

    def describe(self) -> str:
        label = ",".join(self.units) if self.units else self.unit
        return f"{self.kind.value}[{label}]@{self.trigger}"


@dataclass
class Graph:
    nodes: list = field(default_factory=list)
    #: Pass-populated counters (buckets formed, dead waits removed,
    #: demotions, peak-memory estimate, ...).
    stats: dict = field(default_factory=dict)
    #: Chronological program-point sequence recorded at capture time.
    #: Nested units make this essential: the root's pre_backward fires
    #: first in backward but its post_backward fires *last*, so deriving
    #: order from per-node pre/post adjacency would misplace it.
    point_order: list = field(default_factory=list)

    def add(self, kind: NodeKind, **kwargs) -> Node:
        node = Node(id=len(self.nodes), kind=kind, **kwargs)
        self.nodes.append(node)
        return node

    def node(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def live(self, *kinds: NodeKind) -> list:
        return [
            n
            for n in self.nodes
            if not n.removed and (not kinds or n.kind in kinds)
        ]

    def positions(self) -> dict:
        """Map every trigger program point to its execution index.

        Waits and issues at a ``pre_*`` point happen before that unit's
        kernels; reshard frees at a ``post_*`` point happen after.  The
        index therefore orders "what has already run when the executor
        stands at this point".
        """
        if self.point_order:
            return {tuple(p): i for i, p in enumerate(self.point_order)}
        # Fallback for hand-built graphs (tests): assume each unit's
        # pre/post points are adjacent in node order.
        index: dict = {("iter_begin", ""): 0}
        for node in self.nodes:
            if node.kind is NodeKind.COMPUTE_FWD:
                index[("pre_forward", node.unit)] = len(index)
                index[("post_forward", node.unit)] = len(index)
            elif node.kind is NodeKind.COMPUTE_BWD:
                index[("pre_backward", node.unit)] = len(index)
                index[("post_backward", node.unit)] = len(index)
        index[("finalize", "")] = len(index)
        return index
