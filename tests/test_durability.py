"""Crash recovery and self-healing: the durable log and the repair loop.

Acceptance-critical coverage:

* kill-and-reopen: a :class:`DurableMutationLog` reopened from its
  directory serves every acknowledged append and keeps assigning LSNs
  where it left off;
* torn writes: truncating the last segment mid-record recovers the
  longest intact prefix (the torn record was never acknowledged) while
  corruption before the tail stays fatal;
* checkpoint-gated compaction: nothing is compacted before a checkpoint
  exists, and after checkpoint + compaction a restart still reconstructs
  the full acknowledged state (snapshot restore + tail replay);
* the service-level restart guarantee: a :class:`PublishingService`
  backed by a durable log is stopped, restarted from its log directory,
  and serves reads reflecting every acknowledged ``update()`` LSN;
* self-healing: killing one of K replicas under a live publish/update
  workload converges back to K live replicas with differentially
  identical contents, visible in the event log.
"""

import os
import threading

import pytest

from repro.errors import StorageError
from repro.replica import (
    ChangeSet,
    DurableMutationLog,
    MutationLog,
    RepairLoop,
    ReplicaRepairer,
    ReplicatedBackend,
)
from repro.serve import ConnectionPool, PublishingService
from repro.storage.backends import MemoryBackend
from repro.workloads import xmark

SEGMENT_SUFFIX = ".seg"


def multiset(rows):
    return sorted(map(repr, rows))


def small_xmark():
    return xmark.build_configuration(
        xmark.XMarkParameters(items_per_region=4, people=8, closed_auctions=12)
    )


def changeset(i):
    return ChangeSet.build(inserts={"r": [(i, f"row-{i}")]})


def segment_files(directory):
    return sorted(
        entry for entry in os.listdir(directory) if entry.endswith(SEGMENT_SUFFIX)
    )


def replay_backend(log, start=0):
    """A memory backend holding the log's state from *start* (plus snapshot)."""
    backend = MemoryBackend()
    backend.create_table("r", 2, ("a", "b"))
    snapshot = log.load_checkpoint()
    if snapshot is not None:
        from repro.replica import restore_snapshot

        start, tables = snapshot[0], snapshot[1]
        restore_snapshot(backend, tables)
    for entry in log.entries_since(start):
        backend.apply(entry.changeset)
    return backend


# ----------------------------------------------------------------------
# DurableMutationLog: append, reopen, recover
# ----------------------------------------------------------------------
class TestDurableLogRecovery:
    def test_reopen_recovers_every_acknowledged_append(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off")
        lsns = [log.append(changeset(i)) for i in range(20)]
        assert lsns == list(range(1, 21))
        log.close()

        reopened = DurableMutationLog(tmp_path, fsync="off")
        assert reopened.lsn == 20
        assert [entry.lsn for entry in reopened.entries_since(0)] == lsns
        assert [
            entry.changeset for entry in reopened.entries_since(0)
        ] == [changeset(i) for i in range(20)]
        # LSNs continue where the previous incarnation stopped.
        assert reopened.append(changeset(99)) == 21
        reopened.close()

    def test_recovery_spans_sealed_segments(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off", segment_max_bytes=128)
        for i in range(25):
            log.append(changeset(i))
        assert log.segment_count > 1
        log.close()
        assert len(segment_files(tmp_path)) > 1

        reopened = DurableMutationLog(tmp_path, fsync="off", segment_max_bytes=128)
        assert reopened.lsn == 25
        assert len(reopened.entries_since(0)) == 25
        reopened.close()

    def test_recovery_survives_missing_index_sidecar(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off", segment_max_bytes=128)
        for i in range(10):
            log.append(changeset(i))
        log.close()
        for entry in os.listdir(tmp_path):
            if entry.endswith(".idx"):
                os.unlink(tmp_path / entry)

        reopened = DurableMutationLog(tmp_path, fsync="off")
        assert [e.lsn for e in reopened.entries_since(0)] == list(range(1, 11))
        reopened.close()

    def test_fsync_always_is_the_validated_default(self, tmp_path):
        log = DurableMutationLog(tmp_path)
        assert log.fsync == "always"
        log.append(changeset(1))
        log.close()
        with pytest.raises(StorageError, match="fsync policy"):
            DurableMutationLog(tmp_path, fsync="sometimes")

    def test_closed_log_refuses_appends_but_recovers(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off")
        log.append(changeset(1))
        log.close()
        log.close()  # idempotent
        with pytest.raises(StorageError, match="closed"):
            log.append(changeset(2))
        reopened = DurableMutationLog(tmp_path, fsync="off")
        assert reopened.lsn == 1
        reopened.close()


# ----------------------------------------------------------------------
# Torn writes
# ----------------------------------------------------------------------
class TestTornWrites:
    def _truncate_tail(self, tmp_path, drop_bytes):
        last = segment_files(tmp_path)[-1]
        path = tmp_path / last
        size = os.path.getsize(path)
        with open(path, "r+b") as handle:
            handle.truncate(size - drop_bytes)

    def test_torn_tail_record_recovers_the_prefix(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off")
        for i in range(10):
            log.append(changeset(i))
        log.close()
        # Chop into the middle of the last record: the classic footprint
        # of a crash mid-append.
        self._truncate_tail(tmp_path, drop_bytes=7)

        recovered = DurableMutationLog(tmp_path, fsync="off")
        assert recovered.lsn == 9  # entry 10 was torn, 1..9 intact
        assert [e.lsn for e in recovered.entries_since(0)] == list(range(1, 10))
        assert recovered.truncated_records == 1
        # The log keeps assigning LSNs after the recovered prefix.
        assert recovered.append(changeset(42)) == 10
        assert recovered.entries_since(9)[0].changeset == changeset(42)
        recovered.close()

    def test_garbage_appended_to_tail_is_truncated(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off")
        for i in range(5):
            log.append(changeset(i))
        log.close()
        last = segment_files(tmp_path)[-1]
        with open(tmp_path / last, "ab") as handle:
            handle.write(b"\x00\x01partial garbage")

        recovered = DurableMutationLog(tmp_path, fsync="off")
        assert recovered.lsn == 5
        assert recovered.truncated_records == 1
        recovered.close()

    def test_corruption_before_the_tail_is_fatal(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off", segment_max_bytes=128)
        for i in range(25):
            log.append(changeset(i))
        assert log.segment_count > 2
        log.close()
        # Flip payload bytes in the middle of the FIRST (sealed) segment
        # and drop its sidecar so recovery has to scan it.
        first = segment_files(tmp_path)[0]
        with open(tmp_path / first, "r+b") as handle:
            handle.seek(20)
            handle.write(b"\xff\xff\xff\xff")
        sidecar = first[: -len(SEGMENT_SUFFIX)] + ".idx"
        os.unlink(tmp_path / sidecar)

        with pytest.raises(StorageError, match="corrupt before the tail"):
            DurableMutationLog(tmp_path, fsync="off")


# ----------------------------------------------------------------------
# Checkpoints and compaction
# ----------------------------------------------------------------------
class TestCheckpointCompaction:
    def test_compaction_is_a_noop_without_a_checkpoint(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off", segment_max_bytes=128)
        for i in range(25):
            log.append(changeset(i))
        sealed_before = len(segment_files(tmp_path))
        assert log.compact(log.lsn) == 0
        assert log.floor == 0
        assert len(segment_files(tmp_path)) == sealed_before
        log.close()

    def test_checkpoint_then_compact_then_restart(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off", segment_max_bytes=128)
        for i in range(25):
            log.append(changeset(i))
        state = replay_backend(log)
        checkpoint_lsn = log.write_checkpoint(state)
        assert checkpoint_lsn == 25
        dropped = log.compact(log.lsn)
        assert dropped > 0
        assert log.floor > 0
        # Acknowledged entries past the checkpoint keep accumulating.
        for i in range(25, 30):
            log.append(changeset(i))
        log.close()

        reopened = DurableMutationLog(tmp_path, fsync="off", segment_max_bytes=128)
        assert reopened.lsn == 30
        recovered = replay_backend(reopened)
        expected = MemoryBackend()
        expected.create_table("r", 2, ("a", "b"))
        for i in range(30):
            expected.apply(changeset(i))
        assert multiset(recovered.rows("r")) == multiset(expected.rows("r"))
        reopened.close()

    def test_reader_below_the_floor_is_rejected(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off", segment_max_bytes=128)
        for i in range(25):
            log.append(changeset(i))
        log.write_checkpoint(replay_backend(log))
        log.compact(log.lsn)
        with pytest.raises(StorageError, match="compacted"):
            log.entries_since(0)
        log.close()

    def test_missing_entries_below_checkpoint_are_detected(self, tmp_path):
        log = DurableMutationLog(tmp_path, fsync="off", segment_max_bytes=128)
        for i in range(25):
            log.append(changeset(i))
        log.close()
        # Delete the first sealed segment wholesale: acknowledged history
        # is gone and no checkpoint covers it.
        first = segment_files(tmp_path)[0]
        os.unlink(tmp_path / first)
        with pytest.raises(StorageError, match="gap|covers only"):
            DurableMutationLog(tmp_path, fsync="off")


# ----------------------------------------------------------------------
# The pool under compaction: stale clones rebuild instead of failing
# ----------------------------------------------------------------------
class TestStaleCloneRebuild:
    def test_checkout_rebuilds_a_clone_below_the_floor(self):
        template = MemoryBackend()
        template.create_table("r", 2, ("a", "b"))
        template.insert_many("r", [(1, "x")])
        log = MutationLog()
        pool = ConnectionPool(template, size=2, mutation_log=log)
        # Advance the template and compact past the idle clones' LSN 0:
        # the in-memory log compacts unconditionally, simulating a
        # checkpoint outrunning a clone.
        change = ChangeSet.build(inserts={"r": [(2, "y")]})
        template.apply(change)
        log.append(change)
        log.compact(log.lsn)
        assert log.floor == 1
        # Before the fix this raised StorageError forever; now the stale
        # clone is rebuilt from the (current) template.  Hold both
        # connections at once so each of the two idle clones gets synced.
        with pool.connection() as first, pool.connection() as second:
            assert multiset(first.rows("r")) == multiset([(1, "x"), (2, "y")])
            assert multiset(second.rows("r")) == multiset([(1, "x"), (2, "y")])
        assert pool.stats().stale_rebuilds == 2
        pool.close()
        template.close()

    def test_rebuilt_clone_satisfies_the_lsn_barrier(self):
        template = MemoryBackend()
        template.create_table("r", 2, ("a", "b"))
        log = MutationLog()
        pool = ConnectionPool(template, size=1, mutation_log=log)
        change = ChangeSet.build(inserts={"r": [(1, "x")]})
        template.apply(change)
        lsn = log.append(change)
        log.compact(lsn)
        backend = pool.acquire(min_lsn=lsn)
        assert pool.connection_lsn(backend) >= lsn
        pool.release(backend)
        assert pool.stats().stale_rebuilds == 1
        pool.close()
        template.close()


# ----------------------------------------------------------------------
# Service-level restart: the acceptance guarantee
# ----------------------------------------------------------------------
class TestServiceRestart:
    def _service(self, log_dir, **kwargs):
        kwargs.setdefault("backend", "replicated")
        kwargs.setdefault("pool_size", 2)
        kwargs.setdefault("log_fsync", "off")
        return PublishingService(small_xmark(), log_dir=str(log_dir), **kwargs)

    def test_restart_serves_every_acknowledged_update(self, tmp_path):
        query = xmark.query_item_names()
        service = self._service(tmp_path / "log")
        try:
            acknowledged = []
            for i in range(5):
                lsn = service.update(
                    ChangeSet.build(inserts={"itemName": [(f"it-{i}", f"n{i}")]})
                )
                acknowledged.append(lsn)
            assert acknowledged == [1, 2, 3, 4, 5]
            expected = multiset(service.publish(query))
        finally:
            service.close()

        restarted = self._service(tmp_path / "log")
        try:
            assert restarted.stats().last_write_lsn == 5
            assert multiset(restarted.publish(query)) == expected
            recovered = restarted.events.events("log.recovered")
            assert recovered and recovered[0].details["entries"] == 5
            # The write path continues at the next LSN.
            assert restarted.update(
                ChangeSet.build(inserts={"itemName": [("it-9", "n9")]})
            ) == 6
        finally:
            restarted.close()

    def test_restart_after_checkpoint_and_compaction(self, tmp_path):
        query = xmark.query_item_names()
        service = self._service(tmp_path / "log", log_segment_bytes=256)
        try:
            for i in range(8):
                service.update(
                    ChangeSet.build(inserts={"itemName": [(f"ck-{i}", f"n{i}")]})
                )
            checkpoint_lsn = service.checkpoint()
            assert checkpoint_lsn == 8
            # Writes after the checkpoint land in the tail the restart
            # replays on top of the snapshot.
            service.update(
                ChangeSet.build(inserts={"itemName": [("ck-post", "np")]})
            )
            expected = multiset(service.publish(query))
            assert service.events.count("log.checkpoint") == 1
        finally:
            service.close()

        restarted = self._service(tmp_path / "log", log_segment_bytes=256)
        try:
            assert multiset(restarted.publish(query)) == expected
            assert restarted.stats().last_write_lsn == 9
        finally:
            restarted.close()

    @pytest.mark.parametrize("tail", [3, 0])
    def test_restart_plans_with_the_catalog_of_the_recovered_rows(
        self, tmp_path, tail, full_sweep
    ):
        """Recovery writes through the store, so the refresh after it
        re-measures what the snapshot restore and the replayed tail wrote:
        the attached catalog is a full sweep's of the recovered rows, with
        or without a tail after the checkpoint."""
        service = self._service(tmp_path / "log")
        try:
            for i in range(6):
                # Two rows in, one out, names repeating: both counts move.
                service.update(ChangeSet.build(
                    inserts={"itemName": [(f"ck-{i}", "n"), (f"ck-{i}b", "n")]},
                    deletes={"itemName": service.executor.backend.rows("itemName")[:1]},
                ))
            service.checkpoint()
            for i in range(tail):
                service.update(
                    ChangeSet.build(inserts={"itemName": [(f"tail-{i}", "nt")]})
                )
        finally:
            service.close()

        restarted = self._service(tmp_path / "log")
        try:
            backend = restarted.executor.backend
            attached = restarted.system.cost_model.catalog
            assert attached.tables == full_sweep(backend).tables
            assert backend.statistics_catalog.tables == attached.tables
            assert attached.row_count("itemName") == len(backend.rows("itemName"))
        finally:
            restarted.close()

    def test_sharded_deployment_restarts_per_shard(self, tmp_path):
        query = xmark.query_item_names()
        configuration = small_xmark()
        configuration.shard_count = 3
        service = PublishingService(
            configuration,
            backend="sharded",
            pool_size=2,
            log_dir=str(tmp_path / "log"),
            log_fsync="off",
        )
        try:
            service.update(
                ChangeSet.build(inserts={"itemName": [("sh-1", "n1"), ("sh-2", "n2")]})
            )
            expected = multiset(service.publish(query))
        finally:
            service.close()

        configuration = small_xmark()
        configuration.shard_count = 3
        restarted = PublishingService(
            configuration,
            backend="sharded",
            pool_size=2,
            log_dir=str(tmp_path / "log"),
            log_fsync="off",
        )
        try:
            assert multiset(restarted.publish(query)) == expected
        finally:
            restarted.close()

    def test_durability_metrics_and_stats_are_exported(self, tmp_path):
        service = self._service(tmp_path / "log")
        try:
            service.update(
                ChangeSet.build(inserts={"itemName": [("m-1", "n1")]})
            )
            stats = service.stats()
            assert stats.log_segments >= 1
            assert stats.log_size_bytes > 0
            assert stats.events_dropped == 0
            snapshot = stats.snapshot()
            assert snapshot["log_segments"] == stats.log_segments
            assert snapshot["pool"]["stale_rebuilds"] == 0
            text = service.metrics()
            assert "mars_log_segments" in text
            assert "mars_log_size_bytes" in text
            assert "mars_replica_repairs_total 0" in text
            assert "mars_events_dropped_total 0" in text
        finally:
            service.close()

    def test_mismatched_layout_is_rejected(self, tmp_path):
        configuration = small_xmark()
        configuration.shard_count = 3
        service = PublishingService(
            configuration,
            backend="sharded",
            log_dir=str(tmp_path / "log"),
            log_fsync="off",
        )
        service.close()
        with pytest.raises(StorageError, match="different deployment layout"):
            PublishingService(
                small_xmark(),
                backend="replicated",
                log_dir=str(tmp_path / "log"),
                log_fsync="off",
            )

    def test_rebalance_is_refused_on_durable_logs(self, tmp_path):
        configuration = small_xmark()
        configuration.shard_count = 2
        service = PublishingService(
            configuration,
            backend="sharded",
            log_dir=str(tmp_path / "log"),
            log_fsync="off",
        )
        try:
            with pytest.raises(StorageError, match="durable log"):
                service.rebalance(shards=3)
        finally:
            service.close()


# ----------------------------------------------------------------------
# Self-healing: repair back to K replicas
# ----------------------------------------------------------------------
class TestReplicaRepair:
    def test_repairer_restores_k_with_identical_contents(self):
        backend = ReplicatedBackend(replicas=3, child="memory")
        backend.create_table("r", 2, ("a", "b"))
        backend.insert_many("r", [(1, "x"), (2, "y")])
        log = MutationLog()
        # Kill one replica, then keep writing: the survivors advance.
        backend.replicas[1].close()
        change = ChangeSet.build(inserts={"r": [(3, "z")]})
        backend.apply(change)
        log.append(change)
        repairer = ReplicaRepairer(backend)
        assert repairer.dead_replicas() == (1,)
        report = repairer.repair_all(log=log)
        assert report.repaired == (1,)
        stats = backend.stats()
        assert stats.live_replicas == 3
        assert stats.repaired == 1
        reference = multiset(backend.replicas[0].rows("r"))
        for replica in backend.replicas:
            assert multiset(replica.rows("r")) == reference
        backend.close()

    def test_adopting_over_a_live_replica_is_refused(self):
        backend = ReplicatedBackend(replicas=2, child="memory")
        backend.create_table("r", 1)
        with pytest.raises(StorageError, match="still live"):
            backend.adopt_replica(0, MemoryBackend())
        backend.close()

    def test_repair_without_live_source_raises(self):
        backend = ReplicatedBackend(replicas=2, child="memory")
        backend.create_table("r", 1)
        for replica in backend.replicas:
            replica.close()
        repairer = ReplicaRepairer(backend)
        with pytest.raises(StorageError, match="no live replica"):
            repairer.repair(0, log=MutationLog())
        backend.close()

    def test_service_repairs_killed_replica_under_live_workload(self, tmp_path):
        query = xmark.query_item_names()
        service = PublishingService(
            small_xmark(),
            backend="replicated",
            pool_size=2,
            log_dir=str(tmp_path / "log"),
            log_fsync="off",
        )
        try:
            template = service.executor.backend
            assert template.stats().live_replicas == template.replica_count
            baseline = {tuple(r) for r in service.publish(query)}

            stop = threading.Event()
            errors = []

            def workload():
                i = 0
                while not stop.is_set():
                    try:
                        service.update(
                            ChangeSet.build(
                                inserts={"itemName": [(f"live-{i}", "w")]}
                            )
                        )
                        service.publish(query)
                    except Exception as error:  # pragma: no cover
                        errors.append(error)
                        return
                    i += 1

            thread = threading.Thread(target=workload)
            thread.start()
            try:
                # Kill a replica mid-workload; a write will fence it if the
                # direct close has not already taken it out.
                template.replicas[0].close()
                reports = service.repair_replicas()
            finally:
                stop.set()
                thread.join()
            assert not errors
            assert sum(len(r.repaired) for r in reports) == 1
            stats = template.stats()
            assert stats.live_replicas == template.replica_count
            # Differential check: every replica holds the same rows, and
            # they include every acknowledged write.
            reference = multiset(template.replicas[0].rows("itemName"))
            for replica in template.replicas:
                assert multiset(replica.rows("itemName")) == reference
            after = {tuple(r) for r in service.publish(query)}
            assert baseline <= after
            # The recovery is visible in the event log, LSN-stamped.
            repaired = service.events.events("replica.repaired")
            assert repaired and repaired[-1].lsn is not None
            assert service.stats().replica_repairs == 1
        finally:
            service.close()

    def test_auto_repair_loop_heals_without_an_operator(self, tmp_path):
        service = PublishingService(
            small_xmark(),
            backend="replicated",
            pool_size=2,
            log_dir=str(tmp_path / "log"),
            log_fsync="off",
            auto_repair_interval=0.05,
        )
        try:
            template = service.executor.backend
            template.replicas[0].close()
            deadline = threading.Event()
            for _ in range(100):
                if template.stats().live_replicas == template.replica_count:
                    break
                deadline.wait(0.05)
            stats = template.stats()
            assert stats.live_replicas == template.replica_count
            assert stats.repaired == 1
        finally:
            service.close()
        assert service._repair_loop is not None
        assert not service._repair_loop.running

    def test_repair_loop_survives_a_failing_check(self):
        calls = []

        def check():
            calls.append(1)
            raise RuntimeError("transient")

        loop = RepairLoop(check, interval=0.01)
        loop.start()
        deadline = threading.Event()
        for _ in range(100):
            if loop.errors >= 2:
                break
            deadline.wait(0.01)
        loop.stop()
        assert loop.errors >= 2
        assert len(calls) >= 2
