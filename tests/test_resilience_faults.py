"""Fault injection, shard generation under faults, and storage integrity.

The determinism contract under test: the corpus is a pure function of
``(seed, num_workers)`` — a corrupted spill is healed without changing a
single byte of it, and a crashed or killed shard fails the run loudly.
"""

import json
import os
import tempfile

import numpy as np
import pytest

from repro.resilience import (
    CheckpointCorruptError,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedKill,
    ShardCorruptError,
    arm,
    array_checksum,
    atomic_replace,
    atomic_save_npy,
    disarm,
    fault_check,
    get_injector,
)
from repro.resilience.faults import FAULT_PLAN_ENV, arm_from_env, fault_corrupt_file
from repro.resilience.integrity import load_verified_npy
from repro.scale import ShardStore, generate_context_shards, reap_orphans
from repro.scale.store import OWNER_MARKER

CORPUS = dict(walk_length=20, num_walks=2, context_size=5, subsample_t=1e-4)


@pytest.fixture(autouse=True)
def _always_disarmed():
    """No test may leak an armed injector into the rest of the suite."""
    disarm()
    yield
    disarm()


def _corpus(store):
    windows = np.vstack([np.asarray(block)
                         for _, block, _ in store.iter_shards()])
    midst = np.concatenate([m for _, _, m in store.iter_shards()])
    return windows, midst


def _generate(graph, **kwargs):
    kwargs.setdefault("seed", 0)
    kwargs.setdefault("num_workers", 4)
    return generate_context_shards(graph, **CORPUS, **kwargs)


# --------------------------------------------------------------- fault plans
class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan([FaultSpec("serve.search", "delay", (1,), seconds=2.5),
                          FaultSpec("shard.walk", "crash", (0,))])
        restored = FaultPlan.from_json(plan.to_json())
        assert restored.specs == plan.specs

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("shard.walk", "explode", (0,))

    def test_arm_from_env(self, monkeypatch):
        plan = FaultPlan([FaultSpec("shard.walk", "crash", (0,))])
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        injector = arm_from_env()
        assert injector is get_injector()
        assert injector.pending() == 1
        with pytest.raises(InjectedCrash):
            fault_check("shard.walk", (0,))
        assert injector.pending() == 0

    def test_disarmed_sites_are_noops(self):
        assert get_injector() is None
        assert fault_check("shard.walk", (0,)) is None
        assert fault_check("train.epoch") is None

    def test_each_spec_fires_once(self):
        arm(FaultPlan([FaultSpec("shard.walk", "crash", (0,))]))
        with pytest.raises(InjectedCrash):
            fault_check("shard.walk", (0,))
        assert fault_check("shard.walk", (0,)) is None

    def test_counter_keyed_site(self):
        arm(FaultPlan([FaultSpec("train.checkpoint", "crash", (2,))]))
        assert fault_check("train.checkpoint") is None   # occurrence 0
        assert fault_check("train.checkpoint") is None   # occurrence 1
        with pytest.raises(InjectedCrash):
            fault_check("train.checkpoint")              # occurrence 2


# ------------------------------------------------- generation under faults
class TestGenerationUnderFaults:
    @pytest.fixture(scope="class")
    def baseline(self, small_graph):
        return _corpus(_generate(small_graph))

    @pytest.mark.parametrize("shard", [0, 1, 2, 3])
    def test_corrupt_spill_heals_bit_identical(self, small_graph, baseline,
                                               shard):
        """A corrupted shard spill is re-written from memory: the spilled
        corpus equals the fault-free in-memory one exactly, whichever shard
        the corruption hits."""
        arm(FaultPlan([FaultSpec("store.spill", "corrupt", (shard, 0))]))
        with tempfile.TemporaryDirectory() as spill_dir:
            with ShardStore(spill_dir=spill_dir) as store:
                _generate(small_graph, store=store)
                windows, midst = _corpus(store)
        assert get_injector().pending() == 0
        assert np.array_equal(windows, baseline[0])
        assert np.array_equal(midst, baseline[1])

    def test_injected_kill_propagates(self, small_graph):
        arm(FaultPlan([FaultSpec("shard.walk", "kill", (0,))]))
        with pytest.raises(InjectedKill):
            _generate(small_graph)

    def test_crash_is_not_retried_and_a_rerun_is_identical(self, small_graph,
                                                           baseline):
        """Generation keeps no retry loop: a crashed shard fails the run,
        and the recovery is to run generation again, which yields the
        fault-free corpus because the spent spec does not fire twice."""
        arm(FaultPlan([FaultSpec("shard.walk", "crash", (1,))]))
        with pytest.raises(InjectedCrash):
            _generate(small_graph)
        assert get_injector().pending() == 0
        windows, midst = _corpus(_generate(small_graph))
        assert np.array_equal(windows, baseline[0])
        assert np.array_equal(midst, baseline[1])

    def test_unhealable_spill_fails_generation_and_cleans_up(self,
                                                             small_graph):
        """A shard whose spill stays corrupt through every re-write fails
        generation with ShardCorruptError; the shards spilled before it are
        removed with the store."""
        from repro.scale.store import SPILL_WRITE_RETRIES

        arm(FaultPlan([FaultSpec("store.spill", "corrupt", (2, attempt))
                       for attempt in range(SPILL_WRITE_RETRIES + 1)]))
        with tempfile.TemporaryDirectory() as spill_dir:
            with pytest.raises(ShardCorruptError, match="unreliable"):
                with ShardStore(spill_dir=spill_dir) as store:
                    _generate(small_graph, store=store)
            assert store.num_shards == 2
            assert os.listdir(spill_dir) == []


# ----------------------------------------------------------- store integrity
class TestStoreIntegrity:
    def test_doctored_spill_detected_on_read(self, rng):
        windows = rng.integers(0, 50, size=(40, 5))
        with tempfile.TemporaryDirectory() as spill_dir:
            store = ShardStore(spill_dir=spill_dir)
            store.append(windows, np.arange(40))
            path = store._windows[0]
            with open(path, "r+b") as handle:
                handle.seek(os.path.getsize(path) // 2)
                handle.write(b"\xff\xfe\xfd\xfc")
            with pytest.raises(ShardCorruptError, match="checksum"):
                store.windows(0)

    def test_verify_reads_off_skips_the_check(self, rng):
        windows = rng.integers(0, 50, size=(10, 5))
        with tempfile.TemporaryDirectory() as spill_dir:
            store = ShardStore(spill_dir=spill_dir, verify_reads=False)
            store.append(windows, np.arange(10))
            assert np.array_equal(store.windows(0), windows)

    def test_corrupted_write_heals(self, rng):
        """An injected spill corruption is caught by post-write readback and
        simply re-written; the stored shard is intact."""
        windows = rng.integers(0, 50, size=(40, 5))
        arm(FaultPlan([FaultSpec("store.spill", "corrupt", (0, 0))]))
        with tempfile.TemporaryDirectory() as spill_dir:
            with ShardStore(spill_dir=spill_dir) as store:
                store.append(windows, np.arange(40))
                assert np.array_equal(store.windows(0), windows)
                assert get_injector().pending() == 0

    def test_persistent_write_corruption_raises(self, rng):
        from repro.scale.store import SPILL_WRITE_RETRIES

        windows = rng.integers(0, 50, size=(10, 5))
        arm(FaultPlan([FaultSpec("store.spill", "corrupt", (0, attempt))
                       for attempt in range(SPILL_WRITE_RETRIES + 1)]))
        with tempfile.TemporaryDirectory() as spill_dir:
            with ShardStore(spill_dir=spill_dir) as store:
                with pytest.raises(ShardCorruptError, match="unreliable"):
                    store.append(windows, np.arange(10))

    def test_verify_method_checks_all_shards(self, rng):
        with tempfile.TemporaryDirectory() as spill_dir:
            with ShardStore(spill_dir=spill_dir) as store:
                for _ in range(3):
                    store.append(rng.integers(0, 9, size=(8, 5)), np.arange(8))
                assert store.verify() == 3

    def test_context_manager_cleans_up(self, rng):
        with tempfile.TemporaryDirectory() as spill_dir:
            with ShardStore(spill_dir=spill_dir) as store:
                store.append(rng.integers(0, 9, size=(8, 5)), np.arange(8))
                shard_dir = store._dir
                assert os.path.isdir(shard_dir)
            assert not os.path.isdir(shard_dir)


class TestReapOrphans:
    def test_dead_owner_is_reaped_live_is_kept(self, rng):
        with tempfile.TemporaryDirectory() as spill_dir:
            live = ShardStore(spill_dir=spill_dir)
            dead = tempfile.mkdtemp(prefix="shards-", dir=spill_dir)
            with open(os.path.join(dead, OWNER_MARKER), "w") as handle:
                json.dump({"pid": 2 ** 22 + 12345, "created": 0.0}, handle)
            unmarked = tempfile.mkdtemp(prefix="shards-", dir=spill_dir)
            removed = reap_orphans(spill_dir)
            assert sorted(removed) == sorted([dead, unmarked])
            assert os.path.isdir(live._dir)
            live.cleanup()

    def test_missing_dir_is_a_noop(self):
        assert reap_orphans("/nonexistent/spill/dir") == []

    def test_foreign_subdirs_untouched(self):
        with tempfile.TemporaryDirectory() as spill_dir:
            foreign = os.path.join(spill_dir, "keep-me")
            os.makedirs(foreign)
            assert reap_orphans(spill_dir) == []
            assert os.path.isdir(foreign)


# ------------------------------------------------------------- atomic writes
class TestAtomicWrites:
    def test_torn_write_leaves_previous_file_intact(self, tmp_path):
        target = str(tmp_path / "shard.npy")
        original = np.arange(20)
        atomic_save_npy(target, original)
        arm(FaultPlan([FaultSpec("store.spill", "torn", (0, 0))]))

        def stage(temp):
            _write_npy(temp, np.arange(99))
            fault_corrupt_file("store.spill", (0, 0), temp)

        with pytest.raises(InjectedKill):
            atomic_replace(target, stage)
        # The torn temp never reached the target; the old bytes survive.
        assert np.array_equal(np.load(target), original)
        assert not [name for name in os.listdir(tmp_path)
                    if name.startswith(".shard")]

    def test_atomic_save_checksum_round_trip(self, tmp_path):
        target = str(tmp_path / "block.npy")
        array = np.arange(12).reshape(3, 4)
        checksum = atomic_save_npy(target, array)
        assert checksum == array_checksum(array)
        assert np.array_equal(load_verified_npy(target, checksum), array)

    def test_checksum_covers_dtype_and_shape(self):
        array = np.arange(6)
        assert array_checksum(array) != array_checksum(array.astype(np.int32))
        assert array_checksum(array) != array_checksum(array.reshape(2, 3))

    def test_truncated_npz_raises_corrupt_error(self, tmp_path):
        from repro.utils.persistence import load_checkpoint, save_checkpoint

        path = save_checkpoint(str(tmp_path / "model.ckpt"),
                               {"w": np.ones((2, 2))}, np.zeros((4, 2)),
                               {"embedding_dim": 2}, "abc")
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) // 2)
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            load_checkpoint(path)

    def test_foreign_archive_still_plain_value_error(self, tmp_path):
        from repro.utils.persistence import load_checkpoint

        path = str(tmp_path / "foreign.npz")
        np.savez(path, other=np.arange(3))
        with pytest.raises(ValueError, match="not a checkpoint archive"):
            load_checkpoint(path)

    def test_save_embeddings_is_atomic(self, tmp_path):
        from repro.utils.persistence import load_embeddings, save_embeddings

        path = save_embeddings(str(tmp_path / "emb"), np.ones((3, 2)))
        assert path.endswith(".npz")
        loaded, _ = load_embeddings(path)
        assert np.array_equal(loaded, np.ones((3, 2)))
        with open(path, "r+b") as handle:
            handle.truncate(4)
        with pytest.raises(CheckpointCorruptError):
            load_embeddings(path)


def _write_npy(path, array):
    with open(path, "wb") as handle:
        np.save(handle, array)
