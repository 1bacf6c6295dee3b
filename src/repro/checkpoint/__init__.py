"""Resilient distributed checkpointing (paper §4.1, made restartable).

The subsystem has four layers:

- :mod:`repro.checkpoint.serialize` — tensor-payload blobs + CRCs;
- :mod:`repro.checkpoint.manifest` — per-checkpoint commit record:
  shard checksums plus the flat-parameter layout metadata that makes
  shards relocatable;
- :mod:`repro.checkpoint.store` — two-phase-committed, integrity-
  verified storage with injectable faults (torn write, bit corruption,
  lost shard) and *verified-good* ``latest()`` semantics;
- :mod:`repro.checkpoint.reshard` — N→M restore across world sizes and
  wrap granularities by reassembling per-FQN logical tensors;
- :mod:`repro.checkpoint.writer` — cost-modeled async snapshots on a
  dedicated stream with background commit.
"""

from repro.checkpoint.manifest import (
    MANIFEST_VERSION,
    CheckpointManifest,
    ParamSpec,
    ShardEntry,
    UnitLayout,
)
from repro.checkpoint.reshard import (
    assemble_full_state,
    layouts_match,
    load_payload,
    load_resharded,
    snapshot_payload,
    unit_layouts,
)
from repro.checkpoint.serialize import (
    MAGIC,
    blob_crc32,
    deserialize_state,
    serialize_state,
)
from repro.checkpoint.store import (
    DistributedCheckpointStore,
    InMemoryStorage,
    StorageStats,
)
from repro.checkpoint.writer import (
    DRAIN_BANDWIDTH,
    PCIE_BANDWIDTH,
    AsyncCheckpointWriter,
    CheckpointSaveRecord,
)

__all__ = [
    "ParamSpec",
    "UnitLayout",
    "ShardEntry",
    "CheckpointManifest",
    "MANIFEST_VERSION",
    "serialize_state",
    "deserialize_state",
    "blob_crc32",
    "MAGIC",
    "InMemoryStorage",
    "DistributedCheckpointStore",
    "StorageStats",
    "unit_layouts",
    "snapshot_payload",
    "load_payload",
    "assemble_full_state",
    "load_resharded",
    "layouts_match",
    "AsyncCheckpointWriter",
    "CheckpointSaveRecord",
    "PCIE_BANDWIDTH",
    "DRAIN_BANDWIDTH",
]
