"""FlatParameter and FlatParamHandle (Sections 3.2.1, 3.2.3, 4.2).

One :class:`FlatParameter` coalesces all parameters of one FSDP unit
into a single padded 1-D tensor via the flatten-concat-chunk algorithm:

- concatenate the flattened originals, right-pad to a multiple of the
  sharding factor ``F`` (padding is at most ``F - 1``);
- each rank permanently keeps only its ``1/F`` chunk (the *local
  shard*) in full precision;
- before compute, the chunks are AllGathered into a persistent
  *unsharded storage* whose identity never changes — views saved by
  autograd keep aliasing it across release/reallocate cycles, exactly
  like ``storage().resize_(0)`` in the reference implementation;
- the original parameters become autograd-visible ``split``/``view``
  aliases of the unsharded FlatParameter, so the engine naturally
  assembles the *unsharded* FlatParameter gradient and fires the
  post-accumulate-grad hook once it is finalized, where FSDP launches
  ReduceScatter.

The handle also implements the mixed-precision dance of Section 4.4
(low-precision shard cast + low-precision collectives, full-precision
sharded copy retained for the optimizer).
"""

from __future__ import annotations

from typing import Sequence

from repro import ops
from repro.autograd.grad_mode import no_grad
from repro.cuda.device import Device
from repro.cuda.stream import Stream
from repro.distributed import ProcessGroup, Work
from repro.fsdp.handle import ParamInfo, ReduceJob, ShardHandle, ShardRecord
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.tensor import Tensor

__all__ = ["FlatParameter", "FlatParamHandle", "ParamInfo", "ReduceJob"]


class FlatParameter(Parameter):
    """The 1-D coalesced parameter owning an FSDP unit's storage."""

    __slots__ = ()


class FlatParamHandle(ShardHandle, ShardRecord):
    """The flat layout of a :class:`ShardHandle`: one FlatParameter.

    The handle is its own one :class:`ShardRecord`: one logical buffer
    (the padded concatenation) with one binding per original parameter.
    """

    #: Padding makes every rank's chunk equally long.
    even = True

    # The lifecycle is ShardHandle's; these names are looked up in the
    # class body by perfbench's span boundaries.
    unshard = ShardHandle.unshard
    unshard_pair = ShardHandle.unshard_pair
    unshard_commit = ShardHandle.unshard_commit
    reshard = ShardHandle.reshard
    reduce_grad = ShardHandle.reduce_grad
    reduce_grad_pair = ShardHandle.reduce_grad_pair
    flush_post_backward = ShardHandle.flush_post_backward

    def __init__(
        self,
        params: Sequence[tuple[Module, str, Parameter]],
        device: Device,
        shard_group: ProcessGroup,
        **settings,
    ):
        """``settings`` are :meth:`ShardHandle._init_common`'s keywords."""
        originals, owner = self._init_common(params, device, shard_group, **settings)

        # --- flatten-concat-chunk -------------------------------------
        offsets: list[int] = []
        total = 0
        for p in originals:
            offsets.append(total)
            total += p.numel
        factor = self.sharding_factor
        self.total_numel = total
        self.padded_numel = (total + factor - 1) // factor * factor
        self.padding = self.padded_numel - total
        self.shard_numel = self.padded_numel // factor

        self.param_infos: list[ParamInfo] = [
            ParamInfo(
                module, name, originals[i].shape, originals[i].numel, offsets[i]
            )
            for (module, name, _), i in zip(params, owner)
        ]
        self._unique_infos = [
            ParamInfo(None, "", p.shape, p.numel, offsets[i])
            for i, p in enumerate(originals)
        ]

        # Uniform: the front door refuses a unit that mixes frozen and
        # trainable parameters.
        self._build_storages(originals, originals[0].requires_grad)
        self._deregister_and_bind()

        self._init_lifecycle()

    # ------------------------------------------------------------------
    # Shard record (see repro.fsdp.handle.ShardRecord)
    # ------------------------------------------------------------------
    @property
    def records(self) -> list["FlatParamHandle"]:
        # A property, not an attribute: a list holding the handle would
        # be an ownership cycle.
        return [self]

    @property
    def optim_param(self) -> FlatParameter:
        return self.flat_param

    @property
    def shard_offset(self) -> int:
        return self.shard_group.rank * self.shard_numel

    @property
    def layout_shard_numel(self) -> int:
        return self.shard_numel

    def shard_key(self, unit_index: int, fqn: str) -> str:
        # Keyed by unit position: a flat buffer's content depends on
        # the wrap order, not on any one parameter's name.
        return f"flat_param.{unit_index:03d}.{self.label}"

    def _gather_full(self, full: Tensor, value: Tensor) -> Work:
        return self.shard_group.all_gather_into_tensor(full, value)

    # ------------------------------------------------------------------
    # Construction internals
    # ------------------------------------------------------------------
    def _build_storages(self, originals: Sequence[Parameter], requires_grad: bool) -> None:
        with no_grad():
            flats = [ops.view(p.detach(), (p.numel,)) for p in originals]
            full_flat = ops.cat(flats, 0) if len(flats) > 1 else flats[0]
            full_flat = ops.pad_right(full_flat, self.padding)
            start = self.shard_group.rank * self.shard_numel
            self.shard = ops.clone(ops.narrow(full_flat, 0, start, self.shard_numel))
        del full_flat, flats
        # Release the originals' storage: their data now lives in the
        # shards across the group.
        for p in originals:
            p._storage.free()

        self.flat_param = FlatParameter(self.shard, requires_grad=requires_grad)
        # NO_SHARD in full precision: the local shard *is* the full flat
        # parameter; no second copy exists.
        self._build_buffers(cast=self.compute_dtype is not self.full_precision_dtype)

    def _deregister_and_bind(self) -> None:
        """Remove originals from module registries; bind alias views.

        The placeholder views alias the (currently released) unsharded
        storage so attribute access stays wired; they carry valid data
        whenever the handle is unsharded.
        """
        for info in self.param_infos:
            info.module._parameters.pop(info.name, None)
            placeholder = Tensor(
                self._unsharded_storage,
                info.shape,
                offset=info.offset,
                dtype=self.compute_dtype,
            )
            object.__setattr__(info.module, info.name, placeholder)

    # ------------------------------------------------------------------
    # Record-level lifecycle steps (driven by ShardHandle)
    # ------------------------------------------------------------------
    def _gather_into(self, stream: Stream) -> None:
        """Unshard with ``F == 1``, where no pair is gathered (caller
        holds stream/no_grad): copy the gather input into the unsharded
        storage."""
        gather_input = self._gather_input()
        self._unsharded_storage.reallocate()
        self._unsharded_flat.copy_(gather_input)
        self._commit_pair()

    def _use_unsharded(self) -> None:
        """Rebuild the original parameters as views of the FlatParameter.

        The split/view calls are autograd-visible, so gradient flow
        naturally targets the unsharded FlatParameter gradient
        (Section 3.2.3).
        """
        if self.needs_unshard:
            self.flat_param.data = self._unsharded_flat
        sections = [info.numel for info in self._unique_infos]
        if self.padding:
            sections.append(self.padding)
        pieces = ops.split(self.flat_param, sections)
        views_by_offset: dict[int, Tensor] = {}
        for info, piece in zip(self._unique_infos, pieces):
            views_by_offset[info.offset] = ops.view(piece, info.shape)
        for info in self.param_infos:
            object.__setattr__(info.module, info.name, views_by_offset[info.offset])
