"""DeviceMesh and placements for per-parameter sharding.

The flat-param backend reasons about one opaque 1-D buffer per unit;
the per-parameter backend (``fully_shard(..., backend="per_param")``)
instead describes *where each parameter lives* with two primitives
borrowed from DTensor:

- :class:`Shard` — the tensor is split on one dimension (dim 0 here)
  across the ranks of a mesh dimension;
- :class:`Replicate` — every rank of the mesh dimension holds a full
  copy.

A :class:`DeviceMesh` is a named view over the process groups an FSDP
sharding plan already builds: a 1-D ``("shard",)`` mesh for FULL_SHARD
/ SHARD_GRAD_OP, a 2-D ``("replicate", "shard")`` mesh for the hybrid
strategies.  The mesh carries no collectives of its own — it resolves
placements to groups and owns the dim-0 chunking arithmetic.

Chunking is *exact*: rank ``r`` of a ``world``-rank shard dimension
holds rows ``[r * ceil(n / world), min((r + 1) * ceil(n / world), n))``.
Trailing ranks may hold short (or empty) chunks; the handles pad only
their *transient* collective staging buffers to even segments, so
unlike the flat-param flatten-concat-chunk layout no padding is ever
stored — neither in the persistent shards nor in the unsharded
parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

from repro.cuda.device import Device
from repro.distributed.process_group import ProcessGroup
from repro.errors import ShardingError

__all__ = [
    "Placement",
    "Shard",
    "Replicate",
    "DeviceMesh",
    "init_device_mesh",
    "chunk_bounds",
    "local_chunk",
    "chunk_numels",
    "padded_chunk_rows",
]


# ----------------------------------------------------------------------
# Dim-0 chunking arithmetic (shared by placements, handles and tests)
# ----------------------------------------------------------------------
def chunk_bounds(size: int, world: int) -> list[tuple[int, int]]:
    """Per-rank ``[start, end)`` bounds of an even-chunk dim split.

    Chunks are ``ceil(size / world)`` long; the tail rank(s) take what
    is left, possibly nothing (``size < world`` leaves empty chunks).
    """
    if world <= 0:
        raise ShardingError(f"chunking requires a positive world size, got {world}")
    return [local_chunk(size, world, rank) for rank in range(world)]


def local_chunk(size: int, world: int, rank: int) -> tuple[int, int]:
    """``rank``'s ``[start, end)`` bounds of the dim split (closed form:
    hot paths ask for one rank's bounds, never the whole list)."""
    if size < 0:
        raise ShardingError(f"cannot chunk a negative size {size}")
    if not 0 <= rank < world:
        raise ShardingError(f"rank {rank} outside world of size {world}")
    chunk = -(-size // world)
    return min(rank * chunk, size), min((rank + 1) * chunk, size)


def chunk_numels(shape: Sequence[int], world: int) -> list[int]:
    """Per-rank element counts when ``shape`` is sharded on dim 0.

    A 0-d tensor is treated as one row (rank 0 holds it entirely).
    """
    rows = shape[0] if shape else 1
    row_numel = 1
    for dim in shape[1:]:
        row_numel *= dim
    return [(end - start) * row_numel for start, end in chunk_bounds(rows, world)]


def padded_chunk_rows(size: int, world: int) -> int:
    """Rows of padding an *even-size* chunking would append.

    The per-param backend never allocates this padding (its collectives
    are uneven-aware); the number is kept for the memory accounting the
    bench reports against the flat-param layout.
    """
    chunk = -(-size // world) if size else 0
    return chunk * world - size


# ----------------------------------------------------------------------
# Placements
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Placement:
    """How a tensor relates to one mesh dimension."""

    @property
    def is_shard(self) -> bool:
        return isinstance(self, Shard)

    @property
    def is_replicate(self) -> bool:
        return isinstance(self, Replicate)


@dataclass(frozen=True)
class Shard(Placement):
    """Split on ``dim`` across the mesh dimension's ranks."""

    dim: int = 0

    def __post_init__(self):
        if self.dim != 0:
            raise ShardingError(
                f"per-parameter sharding only supports dim-0 placement, got Shard({self.dim})"
            )

    def bounds(self, shape: Sequence[int], world: int) -> list[tuple[int, int]]:
        """Per-rank row bounds for a tensor of ``shape``."""
        rows = shape[0] if shape else 1
        return chunk_bounds(rows, world)

    def local_bounds(self, shape: Sequence[int], world: int, rank: int) -> tuple[int, int]:
        return local_chunk(shape[0] if shape else 1, world, rank)

    def shard_shape(self, shape: Sequence[int], world: int, rank: int) -> tuple[int, ...]:
        """The local shard's logical shape on ``rank``."""
        start, end = self.local_bounds(shape, world, rank)
        if not shape:
            return (end - start,)
        return (end - start, *tuple(shape[1:]))


@dataclass(frozen=True)
class Replicate(Placement):
    """Every rank of the mesh dimension holds the full tensor."""

    def shard_shape(self, shape: Sequence[int], world: int, rank: int) -> tuple[int, ...]:
        return tuple(shape)


# ----------------------------------------------------------------------
# DeviceMesh
# ----------------------------------------------------------------------
class DeviceMesh:
    """A named, N-D arrangement of ranks backed by process groups.

    ``dim_names[i]`` labels ``groups[i]``; the *last* dimension is the
    one parameters shard over (matching the 2-D hybrid layout where the
    outer dimension replicates across hosts and the inner one shards
    within a host).
    """

    def __init__(
        self,
        device: Device,
        groups: Sequence[ProcessGroup],
        dim_names: Sequence[str] = (),
    ):
        if not groups:
            raise ShardingError("DeviceMesh needs at least one process group")
        dim_names = tuple(dim_names) if dim_names else tuple(
            f"dim{i}" for i in range(len(groups))
        )
        if len(dim_names) != len(groups):
            raise ShardingError(
                f"DeviceMesh got {len(groups)} groups but {len(dim_names)} dim names"
            )
        if len(set(dim_names)) != len(dim_names):
            raise ShardingError(f"DeviceMesh dim names must be unique: {dim_names}")
        self.device = device
        self._groups = tuple(groups)
        self.dim_names = dim_names

    # -- shape ----------------------------------------------------------
    @property
    def ndim(self) -> int:
        return len(self._groups)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(g.world_size for g in self._groups)

    def size(self, dim: Optional[Union[int, str]] = None) -> int:
        if dim is None:
            total = 1
            for g in self._groups:
                total *= g.world_size
            return total
        return self.get_group(dim).world_size

    # -- group resolution ----------------------------------------------
    def get_group(self, dim: Union[int, str]) -> ProcessGroup:
        if isinstance(dim, str):
            try:
                dim = self.dim_names.index(dim)
            except ValueError:
                raise ShardingError(
                    f"mesh has no dimension {dim!r} (have {self.dim_names})"
                ) from None
        try:
            return self._groups[dim]
        except IndexError:
            raise ShardingError(
                f"mesh dimension {dim} out of range for shape {self.shape}"
            ) from None

    @property
    def shard_group(self) -> ProcessGroup:
        """The group parameters shard over (the innermost dimension)."""
        return self._groups[-1]

    @property
    def replicate_group(self) -> Optional[ProcessGroup]:
        """The group gradients are additionally reduced over, if any."""
        if self.ndim < 2:
            return None
        return self._groups[-2]

    @property
    def shard_rank(self) -> int:
        return self.shard_group.rank

    # -- construction ---------------------------------------------------
    @classmethod
    def from_plan(cls, plan, device: Device) -> "DeviceMesh":
        """Wrap an FSDP :class:`~repro.fsdp.sharding.ShardingPlan`.

        Hybrid plans become a 2-D ``("replicate", "shard")`` mesh; flat
        plans a 1-D ``("shard",)`` mesh.  NO_SHARD's reduce group also
        maps to the replicate dimension, so DDP-style gradient
        all-reduce falls out of the same mesh shape.
        """
        if plan.replicate_group is not None:
            return cls(
                device,
                (plan.replicate_group, plan.shard_group),
                ("replicate", "shard"),
            )
        return cls(device, (plan.shard_group,), ("shard",))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        dims = ", ".join(
            f"{name}={g.world_size}" for name, g in zip(self.dim_names, self._groups)
        )
        return f"DeviceMesh({dims})"


def init_device_mesh(
    device: Optional[Device] = None,
    *,
    sharding_strategy=None,
    sharding_factor: Optional[int] = None,
    process_group: Optional[ProcessGroup] = None,
) -> DeviceMesh:
    """Build the mesh for an FSDP sharding strategy (default FULL_SHARD).

    This is the ``fully_shard(backend="per_param")`` entry point for
    callers that want to pre-build and share one mesh across units
    rather than letting each ``fully_shard`` call derive its own.
    """
    from repro import distributed as dist
    from repro.fsdp.sharding import ShardingStrategy, make_process_groups

    if sharding_strategy is None:
        sharding_strategy = ShardingStrategy.FULL_SHARD
    plan = make_process_groups(
        sharding_strategy, process_group, sharding_factor=sharding_factor
    )
    return DeviceMesh.from_plan(plan, device or dist.get_device())
