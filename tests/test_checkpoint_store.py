"""repro.checkpoint: serialization, two-phase commit, integrity faults."""

import json

import numpy as np
import pytest

from repro import checkpoint as ck, dtypes
from repro.checkpoint.manifest import CheckpointManifest, ParamSpec, ShardEntry, UnitLayout
from repro.distributed import FaultEvent, FaultInjector, FaultKind, FaultSchedule
from repro.errors import CheckpointCorruptionError, CheckpointError
from repro.tensor import tensor


def payload(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "model": {"flat_param.000.m": tensor(rng.standard_normal(12).astype(np.float32))},
        "optim": {
            "state": {
                "flat_param.000.m": {
                    "step": 3,
                    "exp_avg": tensor(rng.standard_normal(12).astype(np.float32)),
                }
            },
            "param_groups": [{"lr": 0.01}],
        },
        "shard_index": {"flat_param.000.m": 0},
    }


class TestSerialize:
    def test_round_trip_structure_and_values(self):
        original = payload(7)
        back = ck.deserialize_state(ck.serialize_state(original))
        np.testing.assert_array_equal(
            back["model"]["flat_param.000.m"].numpy(),
            original["model"]["flat_param.000.m"].numpy(),
        )
        entry = back["optim"]["state"]["flat_param.000.m"]
        assert entry["step"] == 3
        np.testing.assert_array_equal(
            entry["exp_avg"].numpy(),
            original["optim"]["state"]["flat_param.000.m"]["exp_avg"].numpy(),
        )
        assert back["optim"]["param_groups"][0]["lr"] == 0.01

    def test_round_trip_is_bitwise(self):
        blob = ck.serialize_state(payload(1))
        again = ck.serialize_state(ck.deserialize_state(blob))
        assert blob == again

    def test_scalars_lists_tuples_none(self):
        obj = {"a": [1, 2.5, None, True], "b": ("x", "y"), "c": "s"}
        back = ck.deserialize_state(ck.serialize_state(obj))
        assert back["a"] == [1, 2.5, None, True]
        assert back["b"] == ("x", "y")

    def test_bfloat16_storage_width(self):
        # bf16 is emulated in float32 storage: stored bytes exceed the
        # logical nbytes and the round trip must stay exact anyway.
        t = tensor(np.array([1.5, 2.25, -3.0], dtype=np.float32), dtype=dtypes.bfloat16)
        back = ck.deserialize_state(ck.serialize_state({"t": t}))
        assert back["t"].dtype is dtypes.bfloat16
        np.testing.assert_array_equal(back["t"].numpy(), t.numpy())

    def test_bad_magic_rejected(self):
        with pytest.raises(CheckpointError):
            ck.deserialize_state(b"NOTACKPT" + b"\x00" * 32)

    def test_truncated_blob_rejected(self):
        blob = ck.serialize_state(payload())
        with pytest.raises(CheckpointError):
            ck.deserialize_state(blob[: len(blob) // 3])

    def test_unserializable_type_rejected(self):
        with pytest.raises(CheckpointError):
            ck.serialize_state({"bad": object()})
        with pytest.raises(CheckpointError):
            ck.serialize_state({1: "non-string key"})


class TestManifest:
    def manifest(self):
        return CheckpointManifest(
            iteration=17,
            world_size=4,
            units=(
                UnitLayout(
                    key="flat_param.000.root",
                    label="root",
                    total_numel=100,
                    padded_numel=104,
                    factor=4,
                    shard_numel=26,
                    dtype="float32",
                    params=(ParamSpec(fqn="0.weight", shape=(10, 10), numel=100, offset=0),),
                ),
            ),
            shards=(
                ShardEntry(path="ckpt/00000017/s0", rank=0, nbytes=10, crc32=123),
            ),
            extras={"note": "x"},
        )

    def test_json_round_trip(self):
        m = self.manifest()
        back = CheckpointManifest.from_json(m.to_json())
        assert back == m

    def test_unparseable_manifest_is_typed_error(self):
        with pytest.raises(CheckpointError):
            CheckpointManifest.from_json("{torn json")
        with pytest.raises(CheckpointError):
            CheckpointManifest.from_json(json.dumps({"iteration": 1}))

    def test_shard_for_rank(self):
        m = self.manifest()
        assert m.shard_for_rank(0).crc32 == 123
        with pytest.raises(CheckpointError):
            m.shard_for_rank(3)


class TestTwoPhaseCommit:
    def test_commit_requires_all_shards(self):
        store = ck.DistributedCheckpointStore()
        blob = ck.serialize_state(payload())
        store.save_shard(iteration=1, rank=0, world_size=2, blob=blob)
        assert store.latest() is None  # phase 1 only: uncommitted
        store.save_shard(iteration=1, rank=1, world_size=2, blob=blob)
        assert store.latest() == 1
        # Commit ordering is observable: checksums + manifest written last.
        assert store.storage.exists(store.checksums_path(1))
        assert store.storage.exists(store.manifest_path(1))

    def test_world_size_mismatch_rejected(self):
        store = ck.DistributedCheckpointStore()
        blob = ck.serialize_state(payload())
        store.save_shard(iteration=1, rank=0, world_size=2, blob=blob)
        with pytest.raises(CheckpointError):
            store.save_shard(iteration=1, rank=1, world_size=3, blob=blob)

    def test_completeness_is_judged_by_save_time_world_size(self):
        """A shrink after a partial save must not turn a torn iteration
        complete just because fewer shards now suffice."""
        store = ck.DistributedCheckpointStore()
        blob = ck.serialize_state(payload())
        for rank in range(3):
            store.save_shard(iteration=1, rank=rank, world_size=3, blob=blob)
        store.save_shard(iteration=2, rank=0, world_size=3, blob=blob)  # torn: 1 of 3
        assert store.latest() == 1
        # The world shrank to 1: its saver cannot complete iteration 2.
        with pytest.raises(CheckpointError):
            store.save_shard(iteration=2, rank=0, world_size=1, blob=blob)
        assert store.latest() == 1
        for rank in (1, 2):
            store.save_shard(iteration=2, rank=rank, world_size=3, blob=blob)
        assert store.latest() == 2
        assert store.manifest(2).world_size == 3

    def test_latest_prefers_newest_committed(self):
        store = ck.DistributedCheckpointStore()
        blob = ck.serialize_state(payload())
        for iteration in (1, 2, 3):
            store.save_shard(iteration=iteration, rank=0, world_size=1, blob=blob)
        assert store.committed_iterations() == [1, 2, 3]
        assert store.latest() == 3

    def test_load_round_trips_payload(self):
        store = ck.DistributedCheckpointStore()
        original = payload(5)
        store.save_shard(
            iteration=2, rank=0, world_size=1, blob=ck.serialize_state(original)
        )
        back = store.load_shard(2, 0)
        np.testing.assert_array_equal(
            back["model"]["flat_param.000.m"].numpy(),
            original["model"]["flat_param.000.m"].numpy(),
        )


def _store_with_fault(kind, iteration=2, rank=0):
    schedule = FaultSchedule(
        [FaultEvent(kind=kind, rank=rank, iteration=iteration)], seed=11
    )
    injector = FaultInjector(schedule)
    return ck.DistributedCheckpointStore(injector=injector), injector


class TestStorageFaults:
    @pytest.mark.parametrize(
        "kind", [FaultKind.TORN_WRITE, FaultKind.BIT_CORRUPTION, FaultKind.LOST_SHARD]
    )
    def test_damage_is_silent_until_verify(self, kind):
        """The checkpoint commits (manifest lands) but verification fails:
        last *complete* and last *verified-good* genuinely differ."""
        store, injector = _store_with_fault(kind)
        blob = ck.serialize_state(payload())
        for iteration in (1, 2):
            for rank in range(2):
                store.save_shard(
                    iteration=iteration, rank=rank, world_size=2, blob=blob
                )
        # Both iterations committed — the damage is not visible yet.
        assert store.committed_iterations() == [1, 2]
        assert store.latest(verify=False) == 2
        # Verified scan: iteration 2 is quarantined, falls back to 1.
        assert store.latest() == 1
        assert 2 in store.quarantined
        assert any(f.kind is kind for f in injector.injected)

    def test_corrupted_shard_load_raises_typed_error(self):
        store, _ = _store_with_fault(FaultKind.BIT_CORRUPTION)
        blob = ck.serialize_state(payload())
        for iteration in (1, 2):
            store.save_shard(iteration=iteration, rank=0, world_size=1, blob=blob)
        with pytest.raises(CheckpointCorruptionError) as info:
            store.load_shard(2, 0)
        assert info.value.iteration == 2
        assert info.value.expected_crc != info.value.actual_crc
        assert 2 in store.quarantined
        # The older checkpoint still loads.
        assert store.load_shard(1, 0) is not None

    def test_lost_shard_detected(self):
        store, _ = _store_with_fault(FaultKind.LOST_SHARD)
        blob = ck.serialize_state(payload())
        for iteration in (1, 2):
            store.save_shard(iteration=iteration, rank=0, world_size=1, blob=blob)
        with pytest.raises(CheckpointCorruptionError):
            store.load_shard(2, 0)

    def test_resave_repairs_quarantined_iteration(self):
        store, _ = _store_with_fault(FaultKind.TORN_WRITE)
        blob = ck.serialize_state(payload())
        store.save_shard(iteration=2, rank=0, world_size=1, blob=blob)
        assert store.latest() is None
        assert 2 in store.quarantined
        # Storage events are one-shot: a re-save lands cleanly and
        # un-quarantines the iteration.
        store.save_shard(iteration=2, rank=0, world_size=1, blob=blob)
        assert store.latest() == 2
        assert 2 not in store.quarantined

    def test_fault_is_one_shot_per_rank(self):
        store, injector = _store_with_fault(FaultKind.BIT_CORRUPTION, rank=1)
        blob = ck.serialize_state(payload())
        for rank in range(3):
            store.save_shard(iteration=2, rank=rank, world_size=3, blob=blob)
        assert store.latest() is None  # rank 1's shard is damaged
        assert len([f for f in injector.injected if f.kind is FaultKind.BIT_CORRUPTION]) == 1


class TestRandomScheduleStorageEvents:
    def test_random_generates_storage_kinds(self):
        schedule = FaultSchedule.random(
            seed=3,
            world_size=4,
            iterations=10,
            stragglers=0,
            delays=0,
            transients=0,
            torn_writes=2,
            corruptions=1,
            lost_shards=1,
        )
        kinds = [e.kind for e in schedule.storage_events()]
        assert kinds.count(FaultKind.TORN_WRITE) == 2
        assert kinds.count(FaultKind.BIT_CORRUPTION) == 1
        assert kinds.count(FaultKind.LOST_SHARD) == 1
        assert not schedule.timing_only()
        # Pure function of the seed.
        again = FaultSchedule.random(
            seed=3,
            world_size=4,
            iterations=10,
            stragglers=0,
            delays=0,
            transients=0,
            torn_writes=2,
            corruptions=1,
            lost_shards=1,
        )
        assert again == schedule
