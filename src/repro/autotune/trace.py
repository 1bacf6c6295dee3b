"""Symbolic forward traces for the autotune cost models.

A :class:`ModelTrace` is a flat list of :class:`OpRecord` entries, one
per kernel-producing operation of a model's forward pass, annotated
with the dotted path of the module that owns the op.  Both halves of
the autotuner consume it:

- the memory estimator sums output elements to predict the
  activation footprint (every op output here is either saved for
  backward by its consumer or freed immediately under checkpointing);
- the throughput predictor sums matmul FLOPs and elementwise traffic
  per would-be FSDP unit to price each unit's compute.

Traces are *symbolic*: nothing is allocated and no model is built.
The builders mirror the corresponding ``forward`` implementations in
:mod:`repro.models` op by op — if those change shape, the trace
builders must follow (``benchmarks/test_autotune.py`` guards the
calibration error).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

__all__ = [
    "OpRecord",
    "UnitTotals",
    "ModelTrace",
    "trace_mingpt",
    "trace_t5",
    "trace_dhen",
]


@dataclass(frozen=True)
class OpRecord:
    """One forward op: its owner, output size and arithmetic cost.

    Attributes:
        path: dotted module path of the op's owning module ('' = root).
        elems: elements of the op's output tensor (activation size).
        matmul_flops: tensor-core FLOPs (0 for elementwise/reduction).
        kernels: kernel launches the op issues.
        saved: whether the output survives until backward.  False for
            outputs no backward node retains — e.g. the attention score
            chain (raw scores, scaled, masked): softmax's backward
            needs only its own *output*, so everything upstream of it
            is freed as soon as forward moves on.
    """

    path: str
    elems: float
    matmul_flops: float = 0.0
    kernels: int = 1
    saved: bool = True


@dataclass
class UnitTotals:
    """Per-FSDP-unit aggregation of trace records.

    ``elems`` is split by liveness: ``saved_elems`` survive until the
    unit's backward, ``transient_elems`` (the ``saved=False`` records —
    e.g. pre-softmax attention scores) are freed as soon as the unit's
    forward moves on.  The compiler's reorder pass needs the split to
    prove a pipelined unshard memory-safe: only the saved part
    accumulates across units, while the transient part spikes inside
    one unit's forward.  Folding both into ``elems`` (the old
    behaviour) over-constrained reorderings by pretending transient
    spikes persist.
    """

    elems: float = 0.0
    matmul_flops: float = 0.0
    kernels: int = 0
    saved_elems: float = 0.0
    transient_elems: float = 0.0


@dataclass
class ModelTrace:
    """A model's symbolic forward pass.

    Attributes:
        records: all forward ops in execution order.
        blocks: ``(path_prefix, boundary_elems)`` per checkpointable
            block — under activation checkpointing only the boundary
            output of each block stays saved; interior records are
            freed after forward and re-allocated during the backward
            recompute.
    """

    records: list[OpRecord] = field(default_factory=list)
    blocks: list[tuple[str, float]] = field(default_factory=list)

    # ------------------------------------------------------------------
    def add(
        self,
        path: str,
        elems: float,
        matmul_flops: float = 0.0,
        kernels: int = 1,
        saved: bool = True,
    ) -> None:
        self.records.append(OpRecord(path, elems, matmul_flops, kernels, saved))

    def _block_of(self, path: str) -> Optional[str]:
        for prefix, _ in self.blocks:
            if path == prefix or path.startswith(prefix + "."):
                return prefix
        return None

    # ------------------------------------------------------------------
    # Activation accounting
    # ------------------------------------------------------------------
    def saved_elems(self, checkpointing: bool) -> float:
        """Elements alive at the end of forward (saved for backward)."""
        if not checkpointing or not self.blocks:
            return sum(r.elems for r in self.records if r.saved)
        total = 0.0
        for record in self.records:
            if record.saved and self._block_of(record.path) is None:
                total += record.elems
        total += sum(boundary for _, boundary in self.blocks)
        return total

    def block_interior_elems(self) -> float:
        """Interior elements of the largest checkpointable block.

        Under checkpointing this is re-materialized during backward,
        one block at a time; the largest block gates the peak.
        """
        per_block: dict[str, float] = {}
        for record in self.records:
            block = self._block_of(record.path)
            if block is not None:
                per_block[block] = per_block.get(block, 0.0) + record.elems
        return max(per_block.values()) if per_block else 0.0

    def tail_elems(self) -> float:
        """Largest single op output (gradient-transient proxy).

        At the start of backward the gradients of the widest
        activations (typically the logits and log-probabilities of a
        language-model head) coexist with the saved activations.
        """
        return max((r.elems for r in self.records), default=0.0)

    # ------------------------------------------------------------------
    # Per-unit attribution
    # ------------------------------------------------------------------
    def per_unit(self, unit_paths: Sequence[str]) -> dict[str, UnitTotals]:
        """Aggregate records by owning FSDP unit.

        A record belongs to the unit with the *longest* path that is a
        dotted prefix of the record's path; the root unit ('') catches
        everything else — mirroring how ``_auto_wrap`` assigns
        parameters.
        """
        ordered = sorted(unit_paths, key=len, reverse=True)
        totals = {path: UnitTotals() for path in unit_paths}
        if "" not in totals:
            totals[""] = UnitTotals()
        for record in self.records:
            owner = ""
            for path in ordered:
                if path and (record.path == path or record.path.startswith(path + ".")):
                    owner = path
                    break
            bucket = totals[owner]
            bucket.elems += record.elems
            bucket.matmul_flops += record.matmul_flops
            bucket.kernels += record.kernels
            if record.saved:
                bucket.saved_elems += record.elems
            else:
                bucket.transient_elems += record.elems
        return totals

    def total_matmul_flops(self) -> float:
        return sum(r.matmul_flops for r in self.records)

    def total_kernels(self) -> int:
        return sum(r.kernels for r in self.records)


# ----------------------------------------------------------------------
# Shared transformer pieces
# ----------------------------------------------------------------------
def _trace_attention(
    trace: ModelTrace,
    path: str,
    *,
    batch: float,
    q_len: float,
    kv_len: float,
    d_model: float,
    inner: float,
    num_heads: float,
    causal: bool,
) -> None:
    """Mirror :class:`repro.models.transformer.MultiHeadAttention`.

    ``transpose``/``permute`` copy in this tensor implementation (no
    stride support), so every head reshape is a real kernel with a
    real output allocation.
    """
    nq = batch * q_len
    nkv = batch * kv_len
    maps = batch * num_heads * q_len * kv_len
    head_dim = inner / num_heads
    # q/k/v projections + head permutes
    trace.add(path, nq * inner, 2.0 * nq * d_model * inner)
    trace.add(path, nq * inner)  # q permute copy
    trace.add(path, nkv * inner, 2.0 * nkv * d_model * inner)
    trace.add(path, nkv * inner)  # k permute copy
    trace.add(path, nkv * inner, 2.0 * nkv * d_model * inner)
    trace.add(path, nkv * inner)  # v permute copy
    trace.add(path, nkv * inner)  # transpose(k, -2, -1) copy
    # scores = q @ k^T, scale, (mask), softmax.  The pre-softmax chain
    # is freed after forward: softmax backward keeps only its output.
    trace.add(path, maps, 2.0 * maps * head_dim, saved=False)
    trace.add(path, maps, saved=False)  # scale mul
    if causal:
        trace.add(path, maps, saved=False)  # masked_fill
    trace.add(path, maps)  # softmax
    # attended = weights @ v, merge permute, out projection
    trace.add(path, nq * inner, 2.0 * maps * head_dim)
    trace.add(path, nq * inner)  # merge permute copy
    trace.add(path, nq * d_model, 2.0 * nq * inner * d_model)


def _trace_block(
    trace: ModelTrace,
    path: str,
    *,
    batch: float,
    q_len: float,
    d_model: float,
    inner: float,
    d_ff: float,
    num_heads: float,
    causal: bool,
    cross_len: float = 0.0,
) -> None:
    """Mirror :class:`repro.models.transformer.TransformerBlock`."""
    n = batch * q_len
    trace.add(path, n * d_model, kernels=2)  # ln1
    _trace_attention(
        trace,
        path,
        batch=batch,
        q_len=q_len,
        kv_len=q_len,
        d_model=d_model,
        inner=inner,
        num_heads=num_heads,
        causal=causal,
    )
    trace.add(path, n * d_model)  # residual add
    if cross_len:
        trace.add(path, n * d_model, kernels=2)  # ln_cross
        _trace_attention(
            trace,
            path,
            batch=batch,
            q_len=q_len,
            kv_len=cross_len,
            d_model=d_model,
            inner=inner,
            num_heads=num_heads,
            causal=False,
        )
        trace.add(path, n * d_model)  # residual add
    trace.add(path, n * d_model, kernels=2)  # ln2
    trace.add(path, n * d_ff, 2.0 * n * d_model * d_ff)  # up
    trace.add(path, n * d_ff)  # gelu
    trace.add(path, n * d_model, 2.0 * n * d_ff * d_model)  # down
    trace.add(path, n * d_model)  # residual add


# ----------------------------------------------------------------------
# Model trace builders
# ----------------------------------------------------------------------
def trace_mingpt(config, batch: int, seq: int) -> ModelTrace:
    """Trace :class:`repro.models.MinGPT` (see ``mingpt.py`` forward)."""
    trace = ModelTrace()
    n = float(batch * seq)
    c = float(config.n_embd)
    v = float(config.vocab_size)
    trace.add("tok_emb", n * c)
    trace.add("", n * c)  # position add
    for i in range(config.n_layer):
        _trace_block(
            trace,
            f"blocks.{i}",
            batch=batch,
            q_len=seq,
            d_model=c,
            inner=c,
            d_ff=4.0 * c,
            num_heads=config.n_head,
            causal=True,
        )
        trace.blocks.append((f"blocks.{i}", n * c))
    trace.add("ln_f", n * c, kernels=2)
    trace.add("head", n * v, 2.0 * n * c * v)
    trace.add("", n * v, kernels=2)  # log_softmax (+ nll)
    return trace


def trace_t5(config, batch: int, src_len: int, tgt_len: Optional[int] = None) -> ModelTrace:
    """Trace :class:`repro.models.T5Model` (encoder + causal decoder)."""
    if tgt_len is None:
        tgt_len = src_len
    trace = ModelTrace()
    c = float(config.d_model)
    inner = float(config.num_heads * config.head_dim)
    n_src = float(batch * src_len)
    n_tgt = float(batch * tgt_len)
    v = float(config.vocab_size)
    trace.add("embedding", n_src * c)
    for i in range(config.num_layers):
        _trace_block(
            trace,
            f"encoder.{i}",
            batch=batch,
            q_len=src_len,
            d_model=c,
            inner=inner,
            d_ff=config.d_ff,
            num_heads=config.num_heads,
            causal=False,
        )
        trace.blocks.append((f"encoder.{i}", n_src * c))
    trace.add("embedding", n_tgt * c)
    for i in range(config.num_layers):
        _trace_block(
            trace,
            f"decoder.{i}",
            batch=batch,
            q_len=tgt_len,
            d_model=c,
            inner=inner,
            d_ff=config.d_ff,
            num_heads=config.num_heads,
            causal=True,
            cross_len=float(src_len),
        )
        trace.blocks.append((f"decoder.{i}", n_tgt * c))
    trace.add("final_norm", n_tgt * c, kernels=2)
    trace.add("lm_head", n_tgt * v, 2.0 * n_tgt * c * v)
    trace.add("", n_tgt * v, kernels=2)  # log_softmax (+ nll)
    return trace


def trace_dhen(config, batch: int) -> ModelTrace:
    """Trace the dense stack of :class:`repro.models.DHEN`.

    The sparse-table lookup and all-to-all are outside the dense FSDP
    stack; the workload accounts for them separately (serial comm time
    plus resident table memory).
    """
    trace = ModelTrace()
    b = float(batch)
    feats = float(config.num_features)
    d = float(config.d_model)
    n = b * feats
    trace.add("sparse_table", n * config.sparse_dim)
    trace.add("feature_proj", n * d, 2.0 * n * config.sparse_dim * d)
    trace.add("dense_proj", b * d, 2.0 * b * config.num_dense_features * d)
    trace.add("", n * d)  # features + dense broadcast add
    for i in range(config.num_layers):
        path = f"layers.{i}"
        trace.add(path, n * d, kernels=2)  # norm
        _trace_attention(
            trace,
            path,
            batch=b,
            q_len=feats,
            kv_len=feats,
            d_model=d,
            inner=d,
            num_heads=config.num_heads,
            causal=False,
        )
        trace.add(path, n * config.d_ff, 2.0 * n * d * config.d_ff)  # mlp up
        trace.add(path, n * config.d_ff)  # relu
        trace.add(path, n * d, 2.0 * n * config.d_ff * d)  # mlp down
        trace.add(path, 2.0 * n * d)  # cat(attended, mixed)
        trace.add(path, n * d, 2.0 * n * 2.0 * d * d)  # combine
        trace.add(path, n * d)  # residual add
        trace.blocks.append((path, n * d))
    trace.add("head", b, 2.0 * b * d * feats)
    trace.add("", 6.0 * b, kernels=8)  # sigmoid + BCE chain
    return trace
