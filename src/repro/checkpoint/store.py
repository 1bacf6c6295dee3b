"""Integrity-checked distributed checkpoint storage.

Layout (one namespace per job, in-memory by default)::

    ckpt/00000042/shard-00000-of-00004.bin
    ckpt/00000042/shard-00001-of-00004.bin
    ...
    ckpt/00000042/CHECKSUMS.json     # phase 2a: declared per-shard CRCs
    ckpt/00000042/MANIFEST.json      # phase 2b: the commit point

Two-phase commit: every rank first writes its shard file (phase 1);
once all ``world_size`` shards for an iteration have arrived, the
store writes the checksum index and then the manifest (phase 2).  The
manifest is written *last* and its successful parse is the commit
predicate — a crash (or injected torn write) anywhere earlier leaves
an uncommitted directory that readers skip entirely.

Integrity: the declared CRC of each shard is computed from the bytes
the writer *intended* to store.  Injected storage faults (torn write,
bit corruption, lost shard — :class:`repro.distributed.fault.
StorageDecision`) damage the stored object after the CRC is taken,
exactly like real silent-corruption: the checkpoint looks committed
and complete, and only an integrity verify at load time can tell.
``latest(verify=True)`` therefore returns the newest *verified-good*
iteration, quarantining any committed-but-damaged checkpoint it finds
on the way down.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Optional

from repro.checkpoint.manifest import CheckpointManifest, ShardEntry, UnitLayout
from repro.checkpoint.serialize import blob_crc32, deserialize_state
from repro.distributed.fault import FaultInjector, StorageDecision
from repro.errors import CheckpointCorruptionError, CheckpointError

__all__ = ["InMemoryStorage", "DistributedCheckpointStore", "StorageStats"]


@dataclass
class StorageStats:
    """Byte/op counters maintained by :class:`InMemoryStorage`."""

    writes: int = 0
    reads: int = 0
    bytes_written: int = 0
    bytes_read: int = 0
    faults_applied: int = 0


class InMemoryStorage:
    """A flat path → bytes object store with injectable write faults.

    Stands in for a parallel filesystem / object store.  Writes consult
    the fault injector *after* the caller has computed any checksum, so
    damage is silent until an integrity verify reads the object back.
    """

    def __init__(self, *, injector: Optional[FaultInjector] = None):
        self.injector = injector
        self.stats = StorageStats()
        self._objects: dict[str, bytes] = {}
        self._lock = threading.Lock()

    # -- write path ----------------------------------------------------
    def write(
        self, path: str, blob: bytes, *, rank: int = 0, iteration: int = 0
    ) -> None:
        decision = StorageDecision()
        if self.injector is not None:
            decision = self.injector.on_storage_write(
                rank=rank, iteration=iteration, path=path
            )
        stored: Optional[bytes] = blob
        if decision.lost:
            stored = None
        elif decision.torn:
            # Keep a prefix: the classic torn write (crash mid-flush).
            stored = blob[: max(1, len(blob) // 2)]
        elif decision.corrupt_bit is not None and blob:
            bit = decision.corrupt_bit % (len(blob) * 8)
            damaged = bytearray(blob)
            damaged[bit // 8] ^= 1 << (bit % 8)
            stored = bytes(damaged)
        with self._lock:
            self.stats.writes += 1
            self.stats.bytes_written += len(blob)
            if not decision.benign:
                self.stats.faults_applied += 1
            if stored is None:
                self._objects.pop(path, None)
            else:
                self._objects[path] = stored

    # -- read path -----------------------------------------------------
    def read(self, path: str) -> bytes:
        with self._lock:
            try:
                blob = self._objects[path]
            except KeyError:
                raise CheckpointError(f"storage object not found: {path}") from None
            self.stats.reads += 1
            self.stats.bytes_read += len(blob)
            return blob

    def exists(self, path: str) -> bool:
        with self._lock:
            return path in self._objects

    def list(self, prefix: str = "") -> list[str]:
        with self._lock:
            return sorted(p for p in self._objects if p.startswith(prefix))


@dataclass
class _PendingCheckpoint:
    world_size: int
    units: tuple[UnitLayout, ...]
    shards: dict[int, ShardEntry] = field(default_factory=dict)


class DistributedCheckpointStore:
    """Manifest-committed, checksum-verified sharded checkpoints."""

    def __init__(
        self,
        *,
        storage: Optional[InMemoryStorage] = None,
        injector: Optional[FaultInjector] = None,
        prefix: str = "ckpt",
    ):
        if storage is None:
            storage = InMemoryStorage(injector=injector)
        elif injector is not None and storage.injector is None:
            storage.injector = injector
        self.storage = storage
        self.prefix = prefix
        self._pending: dict[int, _PendingCheckpoint] = {}
        self._quarantined: set[int] = set()
        self._verified: set[int] = set()
        self._lock = threading.Lock()

    # -- paths ---------------------------------------------------------
    def _dir(self, iteration: int) -> str:
        return f"{self.prefix}/{iteration:08d}"

    def shard_path(self, iteration: int, rank: int, world_size: int) -> str:
        return f"{self._dir(iteration)}/shard-{rank:05d}-of-{world_size:05d}.bin"

    def manifest_path(self, iteration: int) -> str:
        return f"{self._dir(iteration)}/MANIFEST.json"

    def checksums_path(self, iteration: int) -> str:
        return f"{self._dir(iteration)}/CHECKSUMS.json"

    # -- save (phase 1 per rank, phase 2 on last arrival) --------------
    def save_shard(
        self,
        *,
        iteration: int,
        rank: int,
        world_size: int,
        blob: bytes,
        units: tuple[UnitLayout, ...] = (),
        extras: Optional[dict] = None,
    ) -> int:
        """Store one rank's shard; commit the checkpoint when all arrive.

        Returns the number of bytes handed to storage.  The declared
        CRC is computed *here*, from the intended bytes — injected
        storage damage happens downstream and stays invisible until an
        integrity verify.
        """
        path = self.shard_path(iteration, rank, world_size)
        entry = ShardEntry(
            path=path, rank=rank, nbytes=len(blob), crc32=blob_crc32(blob)
        )
        self.storage.write(path, blob, rank=rank, iteration=iteration)
        with self._lock:
            pending = self._pending.get(iteration)
            if pending is None:
                pending = self._pending[iteration] = _PendingCheckpoint(
                    world_size=world_size, units=tuple(units)
                )
            elif pending.world_size != world_size:
                raise CheckpointError(
                    f"iteration {iteration}: rank {rank} saving with world size "
                    f"{world_size}, but {pending.world_size} shards already pending"
                )
            if units and not pending.units:
                pending.units = tuple(units)
            pending.shards[rank] = entry
            complete = len(pending.shards) == world_size
            if complete:
                del self._pending[iteration]
        if complete:
            self._commit(iteration, pending, extras or {})
        return len(blob)

    def _commit(
        self, iteration: int, pending: _PendingCheckpoint, extras: dict
    ) -> None:
        shards = tuple(pending.shards[r] for r in sorted(pending.shards))
        manifest = CheckpointManifest(
            iteration=iteration,
            world_size=pending.world_size,
            units=pending.units,
            shards=shards,
            extras=extras,
        )
        # Phase 2a: checksum index (redundant with the manifest, but it
        # makes the commit ordering observable: shards → checksums →
        # manifest).  Phase 2b: the manifest itself — the commit point.
        checksums = "\n".join(f"{s.crc32:08x}  {s.path}" for s in shards)
        self.storage.write(
            self.checksums_path(iteration),
            checksums.encode("utf-8"),
            rank=-1,
            iteration=iteration,
        )
        self.storage.write(
            self.manifest_path(iteration),
            manifest.to_json().encode("utf-8"),
            rank=-1,
            iteration=iteration,
        )
        with self._lock:
            # A re-save of a previously damaged iteration repairs it.
            self._quarantined.discard(iteration)
            self._verified.discard(iteration)

    # -- read ----------------------------------------------------------
    def manifest(self, iteration: int) -> Optional[CheckpointManifest]:
        """The committed manifest, or ``None`` if uncommitted/unparseable."""
        try:
            text = self.storage.read(self.manifest_path(iteration)).decode("utf-8")
            return CheckpointManifest.from_json(text)
        except (CheckpointError, UnicodeDecodeError):
            return None

    def committed_iterations(self) -> list[int]:
        suffix = "/MANIFEST.json"
        out = []
        for path in self.storage.list(self.prefix + "/"):
            if path.endswith(suffix):
                out.append(int(path[len(self.prefix) + 1 : -len(suffix)]))
        return sorted(out)

    def verify(self, iteration: int) -> bool:
        """Check every shard of a committed checkpoint against its CRC."""
        with self._lock:
            if iteration in self._verified:
                return True
        manifest = self.manifest(iteration)
        if manifest is None:
            return False
        for entry in manifest.shards:
            try:
                blob = self.storage.read(entry.path)
            except CheckpointError:
                return False
            if len(blob) != entry.nbytes or blob_crc32(blob) != entry.crc32:
                return False
        with self._lock:
            self._verified.add(iteration)
        return True

    def quarantine(self, iteration: int) -> None:
        with self._lock:
            self._quarantined.add(iteration)
            self._verified.discard(iteration)

    @property
    def quarantined(self) -> frozenset[int]:
        with self._lock:
            return frozenset(self._quarantined)

    def latest(self, *, verify: bool = True) -> Optional[int]:
        """Newest usable iteration.

        With ``verify=True`` (the default) this is the newest
        *verified-good* checkpoint: committed-but-damaged iterations are
        quarantined as they are discovered and the scan continues
        downward.  With ``verify=False`` it is merely the newest
        *committed* one — the pre-integrity behaviour, kept for
        measuring how often that distinction matters.
        """
        for iteration in reversed(self.committed_iterations()):
            with self._lock:
                if iteration in self._quarantined:
                    continue
            if not verify:
                return iteration
            if self.verify(iteration):
                return iteration
            self.quarantine(iteration)
        return None

    def load_shard(self, iteration: int, rank: int):
        """Load + integrity-check one rank's payload from a committed checkpoint.

        Raises :class:`CheckpointCorruptionError` when the stored bytes
        do not match the declared checksum (or are missing/truncated),
        after quarantining the iteration.
        """
        manifest = self.manifest(iteration)
        if manifest is None:
            raise CheckpointError(f"iteration {iteration} is not committed")
        entry = manifest.shard_for_rank(rank)
        try:
            blob = self.storage.read(entry.path)
        except CheckpointError:
            self.quarantine(iteration)
            raise CheckpointCorruptionError(
                f"shard {entry.path} lost (declared {entry.nbytes} bytes)",
                iteration=iteration,
                path=entry.path,
                expected_crc=entry.crc32,
            ) from None
        actual = blob_crc32(blob)
        if len(blob) != entry.nbytes or actual != entry.crc32:
            self.quarantine(iteration)
            raise CheckpointCorruptionError(
                f"shard {entry.path} failed integrity check: "
                f"declared crc {entry.crc32:08x} ({entry.nbytes} bytes), "
                f"stored crc {actual:08x} ({len(blob)} bytes)",
                iteration=iteration,
                path=entry.path,
                expected_crc=entry.crc32,
                actual_crc=actual,
            )
        return deserialize_state(blob)

    def read_all(self, iteration: int):
        """Load every shard of a checkpoint (for resharded restores).

        Returns ``(manifest, payloads)`` where ``payloads[rank]`` is the
        deserialized payload saved by ``rank``.
        """
        manifest = self.manifest(iteration)
        if manifest is None:
            raise CheckpointError(f"iteration {iteration} is not committed")
        payloads = {
            entry.rank: self.load_shard(iteration, entry.rank)
            for entry in manifest.shards
        }
        return manifest, payloads
