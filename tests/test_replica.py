"""The replication + live-update subsystem: write path, replicas, rebalance.

Acceptance-critical coverage:

* the differential suite under interleaved reads and writes — a
  ``replicated`` backend (K=2 and K=3, over plain SQLite and over sharded
  children) must agree with a plain memory oracle after every change set;
* kill-a-replica failover while publishes are in flight;
* the rebalance-while-publishing linearizability check: every read taken
  during an online shard split must observe a *prefix* of the
  single-writer update stream, and the post-rebalance state must equal
  the oracle.
"""

import re
import threading

import pytest

from repro.core import MarsExecutor
from repro.errors import EvaluationError, StorageError
from repro.logical.atoms import RelationalAtom
from repro.logical.queries import ConjunctiveQuery
from repro.logical.terms import Constant, Variable
from repro.replica import (
    ChangeSet,
    LeastLoadedSelector,
    MutationLog,
    Rebalancer,
    ReplicatedBackend,
    RoundRobinSelector,
    TableChange,
    create_selector,
)
from repro.serve import ConnectionPool, PublishingService
from repro.shard import ShardedBackend
from repro.storage.backends import (
    MemoryBackend,
    SQLiteBackend,
    available_backends,
    create_backend,
)
from repro.workloads import xmark
from repro.workloads.datagen import UpdateStreamGenerator

UPDATABLE_TABLES = ("itemName", "itemCategory", "personDirectory", "auctionPrice")


def multiset(rows):
    return sorted(map(repr, rows))


def small_xmark():
    return xmark.build_configuration(
        xmark.XMarkParameters(items_per_region=4, people=8, closed_auctions=12)
    )


def simple_query(table="r"):
    x, y = Variable("x"), Variable("y")
    return ConjunctiveQuery("q", (x, y), (RelationalAtom(table, (x, y)),))


# ----------------------------------------------------------------------
# ChangeSet and MutationLog
# ----------------------------------------------------------------------
class TestChangeSetAndLog:
    def test_build_merges_per_relation(self):
        changeset = ChangeSet.build(
            inserts={"r": [(1, "a")], "s": [(2,)]},
            deletes={"r": [(3, "b")]},
        )
        by_name = {change.relation: change for change in changeset.changes}
        assert by_name["r"].inserts == ((1, "a"),)
        assert by_name["r"].deletes == ((3, "b"),)
        assert by_name["s"].inserts == ((2,),)
        assert changeset.touched() == 3
        assert changeset.touched("r") == 2
        assert not changeset.is_empty()
        assert ChangeSet.build().is_empty()

    def test_restricted_to(self):
        changeset = ChangeSet.build(inserts={"r": [(1,)], "s": [(2,)]})
        restricted = changeset.restricted_to(["s"])
        assert restricted.relations() == ("s",)

    def test_log_lsns_are_monotonic_and_dense(self):
        log = MutationLog()
        assert log.lsn == 0
        first = log.append(ChangeSet.build(inserts={"r": [(1,)]}))
        second = log.append(ChangeSet.build(inserts={"r": [(2,)]}))
        assert (first, second) == (1, 2)
        assert [entry.lsn for entry in log.entries_since(0)] == [1, 2]
        assert [entry.lsn for entry in log.entries_since(1)] == [2]
        assert log.entries_since(2) == ()

    def test_log_compaction_guards_stale_readers(self):
        log = MutationLog()
        for i in range(5):
            log.append(ChangeSet.build(inserts={"r": [(i,)]}))
        assert log.compact(3) == 3
        assert len(log) == 2
        assert [entry.lsn for entry in log.entries_since(3)] == [4, 5]
        with pytest.raises(StorageError):
            log.entries_since(1)
        # compacting backwards or past the head is a no-op / clamped
        assert log.compact(2) == 0
        assert log.compact(99) == 2


# ----------------------------------------------------------------------
# The apply() write path on every engine
# ----------------------------------------------------------------------
def writable_backend(kind):
    if kind == "sharded":
        backend = ShardedBackend(
            shards=3, children="memory", partition_keys={"r": "a"}
        )
    elif kind == "replicated":
        backend = ReplicatedBackend(replicas=2, child="sqlite")
    else:
        backend = create_backend(kind)
    backend.create_table("r", 2, ("a", "b"))
    backend.insert_many("r", [(1, "x"), (1, "x"), (2, "y"), (3, "z")])
    return backend


@pytest.mark.parametrize("kind", ("memory", "sqlite", "sharded", "replicated"))
class TestApplyWritePath:
    def test_apply_inserts_and_deletes(self, kind):
        with writable_backend(kind) as backend:
            backend.apply(
                ChangeSet.build(
                    inserts={"r": [(4, "w")]}, deletes={"r": [(2, "y")]}
                )
            )
            assert multiset(backend.rows("r")) == multiset(
                [(1, "x"), (1, "x"), (3, "z"), (4, "w")]
            )

    def test_delete_is_bag_semantics(self, kind):
        """One requested delete removes exactly one duplicate occurrence."""
        with writable_backend(kind) as backend:
            removed = backend.delete_many("r", [(1, "x")])
            assert removed == 1
            assert multiset(backend.rows("r")) == multiset(
                [(1, "x"), (2, "y"), (3, "z")]
            )

    def test_deleting_missing_rows_is_a_noop(self, kind):
        with writable_backend(kind) as backend:
            assert backend.delete_many("r", [(99, "nope")]) == 0
            assert backend.cardinality("r") == 4

    def test_apply_unknown_table_raises(self, kind):
        with writable_backend(kind) as backend:
            with pytest.raises(EvaluationError):
                backend.apply(ChangeSet.build(inserts={"missing": [(1,)]}))


class TestSQLiteTransactionalApply:
    def test_failed_apply_rolls_back_entirely(self):
        backend = SQLiteBackend()
        backend.create_table("r", 2, ("a", "b"))
        backend.insert_many("r", [(1, "x"), (2, "y")])
        bad = ChangeSet(
            changes=(
                TableChange("r", inserts=((9, "ok"),), deletes=((1, "x"),)),
                TableChange("r", inserts=((1, 2, 3),)),  # wrong arity
            )
        )
        with pytest.raises(EvaluationError):
            backend.apply(bad)
        # the valid first change must not have leaked through
        assert multiset(backend.rows("r")) == multiset([(1, "x"), (2, "y")])
        backend.close()

    def test_null_values_are_deletable(self):
        backend = SQLiteBackend()
        backend.create_table("r", 2, ("a", "b"))
        backend.insert_many("r", [(1, None), (2, "y")])
        assert backend.delete_many("r", [(1, None)]) == 1
        assert multiset(backend.rows("r")) == multiset([(2, "y")])
        backend.close()


class TestShardedChangeRouting:
    def test_routed_changes_land_on_owning_shards(self):
        backend = ShardedBackend(
            shards=3, children="memory", partition_keys={"r": "a"}
        )
        backend.create_table("r", 2, ("a", "b"))
        backend.create_table("dim", 1, ("d",))  # broadcast
        rows = [(i, f"v{i}") for i in range(12)]
        backend.insert_many("r", rows)
        backend.insert_many("dim", [("only",)])
        spec = backend.partition_spec("r")
        routed = backend.route_changeset(
            ChangeSet.build(
                inserts={"r": [(100, "new")], "dim": [("second",)]},
                deletes={"r": [(0, "v0")]},
            )
        )
        # the dim broadcast reaches every shard; r rows only their owner
        assert set(routed) == {0, 1, 2}
        owner = spec.partitioner.shard_of(100, 3)
        for shard, sub in routed.items():
            names = sub.relations()
            assert "dim" in names
            if shard == owner:
                assert ("r", (100, "new")) in [
                    (change.relation, row)
                    for change in sub.changes
                    for row in change.inserts
                ]
        backend.apply(
            ChangeSet.build(inserts={"r": [(100, "new")]})
        )
        fragments = backend.fragment_cardinalities("r")
        assert sum(fragments) == 13
        backend.close()


# ----------------------------------------------------------------------
# Replica selectors
# ----------------------------------------------------------------------
class TestSelectors:
    def test_round_robin_rotates_the_start(self):
        selector = RoundRobinSelector()
        starts = [selector.order(3, (0, 0, 0))[0] for _ in range(6)]
        assert starts == [0, 1, 2, 0, 1, 2]
        assert sorted(selector.order(3, (0, 0, 0))) == [0, 1, 2]

    def test_least_loaded_prefers_idle_replicas(self):
        selector = LeastLoadedSelector()
        assert selector.order(3, (5, 0, 2))[0] == 1
        assert selector.order(3, (5, 0, 2))[-1] == 0
        # ties rotate so idle replicas alternate
        starts = {selector.order(2, (1, 1))[0] for _ in range(4)}
        assert starts == {0, 1}

    def test_create_selector_registry(self):
        assert isinstance(create_selector("round_robin"), RoundRobinSelector)
        assert isinstance(create_selector("least_loaded"), LeastLoadedSelector)
        assert isinstance(create_selector(None), RoundRobinSelector)
        with pytest.raises(StorageError):
            create_selector("nope")


# ----------------------------------------------------------------------
# ReplicatedBackend
# ----------------------------------------------------------------------
class TestReplicatedBackend:
    def test_registered_and_default_count_from_env(self, monkeypatch):
        assert "replicated" in available_backends()
        monkeypatch.setenv("MARS_REPLICAS", "3")
        backend = create_backend("replicated")
        assert backend.replica_count == 3
        backend.close()

    def test_reads_spread_over_replicas(self):
        with writable_backend("replicated") as backend:
            for _ in range(6):
                backend.execute(simple_query())
            stats = backend.stats()
            assert sum(stats.reads_per_replica) == 6
            assert all(count > 0 for count in stats.reads_per_replica)

    def test_writes_reach_every_replica(self):
        with writable_backend("replicated") as backend:
            backend.apply(ChangeSet.build(inserts={"r": [(9, "nine")]}))
            for replica in backend.replicas:
                assert (9, "nine") in tuple(replica.rows("r"))

    def test_failover_when_a_replica_dies(self):
        with writable_backend("replicated") as backend:
            expected = multiset(backend.execute(simple_query()))
            backend.replicas[0].close()
            for _ in range(4):
                assert multiset(backend.execute(simple_query())) == expected
            stats = backend.stats()
            assert stats.live_replicas == 1
            # writes keep working on the survivors
            backend.apply(ChangeSet.build(inserts={"r": [(7, "seven")]}))
            assert (7, "seven") in {tuple(r) for r in backend.rows("r")}

    def test_all_replicas_dead_raises(self):
        with writable_backend("replicated") as backend:
            for replica in backend.replicas:
                replica.close()
            with pytest.raises(StorageError):
                backend.execute(simple_query())
            with pytest.raises(StorageError):
                backend.apply(ChangeSet.build(inserts={"r": [(1, "x")]}))

    def test_clone_skips_dead_replicas(self):
        backend = ReplicatedBackend(replicas=3, child="sqlite")
        backend.create_table("r", 2, ("a", "b"))
        backend.insert_many("r", [(1, "x")])
        backend.replicas[1].close()
        clone = backend.clone()
        assert clone.replica_count == 2
        assert multiset(clone.execute(simple_query())) == multiset([(1, "x")])
        clone.close()
        backend.close()

    def test_nesting_replicated_in_replicated_is_rejected(self):
        with pytest.raises(StorageError):
            ReplicatedBackend(replicas=2, child="replicated")

    def test_explain_names_the_replication(self, explain):
        with writable_backend("replicated") as backend:
            text = explain(backend, simple_query())
            assert re.search(
                r"replica-read replica\d: .*order=\[\d, \d\], .*"
                r"selector='round_robin'",
                text,
            )

    def test_query_errors_do_not_fail_over(self):
        """EvaluationError is deterministic: no point asking another copy."""
        with writable_backend("replicated") as backend:
            bad = ConjunctiveQuery(
                "bad",
                (Variable("x"),),
                (RelationalAtom("missing", (Variable("x"),)),),
            )
            with pytest.raises(EvaluationError):
                backend.execute(bad)
            assert backend.stats().failovers == 0

    def test_divergent_writer_is_fenced_not_left_serving(self):
        """A replica that rejects a write the others accepted is fenced.

        Memory stores any Python value; SQLite cannot bind a tuple.  After
        the mixed-acceptance write the SQLite replica has *missed* it and
        must be closed, never serving a stale read.
        """
        memory = MemoryBackend()
        sqlite = SQLiteBackend(check_same_thread=False)
        backend = ReplicatedBackend(children=[memory, sqlite])
        backend.create_table("t", 1, ("x",))
        backend.insert_many("t", [((1, 2),)])  # memory accepts, sqlite cannot
        stats = backend.stats()
        assert stats.fenced == 1
        assert stats.live_replicas == 1
        assert sqlite.closed
        # every read now comes from the replica that holds the write
        x = Variable("x")
        query = ConjunctiveQuery("q", (x,), (RelationalAtom("t", (x,)),))
        for _ in range(3):
            assert backend.execute(query) == [((1, 2),)]
        backend.close()

    def test_bad_write_on_first_replica_propagates_cleanly(self):
        """Nothing applied anywhere -> a typed error, no fencing."""
        with writable_backend("replicated") as backend:
            with pytest.raises(EvaluationError):
                backend.insert_many("r", [(1,)])  # wrong arity everywhere
            stats = backend.stats()
            assert stats.fenced == 0
            assert stats.live_replicas == 2

    def test_mixed_snapshot_children_are_detected(self, tmp_path):
        shared = SQLiteBackend(str(tmp_path / "mix.db"), check_same_thread=False)
        backend = ReplicatedBackend(children=[MemoryBackend(), shared])
        backend.create_table("r", 1, ("x",))
        assert backend.has_mixed_snapshot_children
        with pytest.raises(StorageError):
            ConnectionPool(backend, size=1, mutation_log=MutationLog())
        backend.close()

    def test_configuration_builds_replicated_over_sharded_thread_portable(self):
        """The service path (check_same_thread kwarg) must not leak stores."""
        configuration = small_xmark()
        configuration.shard_count = 2
        backend = configuration.create_backend(
            "replicated", replicas=2, child="sharded", check_same_thread=False
        )
        assert backend.replica_count == 2
        assert all(
            isinstance(replica, ShardedBackend) for replica in backend.replicas
        )
        backend.close()


# ----------------------------------------------------------------------
# Pool catch-up and the force-close leak fix
# ----------------------------------------------------------------------
class TestPoolMutationCatchup:
    def _pool(self, size=2):
        template = MemoryBackend()
        template.create_table("r", 2, ("a", "b"))
        template.insert_many("r", [(1, "x")])
        log = MutationLog()
        pool = ConnectionPool(template, size=size, mutation_log=log)
        return template, log, pool

    def test_checkout_replays_the_tail(self):
        template, log, pool = self._pool()
        changeset = ChangeSet.build(inserts={"r": [(2, "y")]})
        template.apply(changeset)
        log.append(changeset)
        with pool.connection() as backend:
            assert multiset(backend.rows("r")) == multiset([(1, "x"), (2, "y")])
        stats = pool.stats()
        assert stats.catchups == 1
        assert stats.entries_replayed == 1
        pool.close()
        template.close()

    def test_min_lsn_barrier_is_satisfied_after_sync(self):
        template, log, pool = self._pool(size=1)
        changeset = ChangeSet.build(inserts={"r": [(3, "z")]})
        template.apply(changeset)
        lsn = log.append(changeset)
        backend = pool.acquire(min_lsn=lsn)
        assert pool.connection_lsn(backend) == lsn
        pool.release(backend)
        pool.close()
        template.close()

    def test_log_compacts_once_every_clone_caught_up(self):
        template, log, pool = self._pool(size=2)
        changeset = ChangeSet.build(inserts={"r": [(2, "y")]})
        template.apply(changeset)
        log.append(changeset)
        first = pool.acquire()
        pool.release(first)
        assert len(log) == 1  # the idle clone still needs the entry
        second = pool.acquire()
        third = pool.acquire()  # now both clones have synced at checkout
        pool.release(second)
        pool.release(third)
        assert len(log) == 0
        pool.close()
        template.close()

    def test_construction_stamps_each_clone_before_it_is_taken(self):
        """Writes landing *between* clone() calls must still be replayed.

        Regression: the constructor used to stamp every clone with the
        log head observed *after* the clone loop, so a write racing the
        loop was credited to clones taken before it existed — they never
        replayed it and served stale rows while claiming the head LSN.
        """
        log = MutationLog()
        template = MemoryBackend()
        template.create_table("r", 2, ("a", "b"))
        template.insert_many("r", [(1, "x")])
        original_clone = template.clone
        writes = []

        def clone_then_write():
            clone = original_clone()
            # A writer lands a change after this clone was taken but
            # while the pool is still constructing its siblings.
            changeset = ChangeSet.build(
                inserts={"r": [(100 + len(writes), "raced")]}
            )
            template.apply(changeset)
            log.append(changeset)
            writes.append(changeset)
            return clone

        template.clone = clone_then_write
        pool = ConnectionPool(template, size=3, mutation_log=log)
        template.clone = original_clone
        assert len(writes) == 3
        expected = multiset(template.rows("r"))
        backends = [pool.acquire(min_lsn=log.lsn) for _ in range(3)]
        for backend in backends:
            assert multiset(backend.rows("r")) == expected
        for backend in backends:
            pool.release(backend)
        pool.close()
        template.close()

    def test_concurrent_writer_during_pool_construction(self):
        """No acknowledged write may be lost by a pool built under load."""
        log = MutationLog()
        template = MemoryBackend()
        template.create_table("r", 2, ("a", "b"))
        template.insert_many("r", [(0, "seed")])
        stop = threading.Event()

        def writer():
            i = 0
            while not stop.is_set():
                changeset = ChangeSet.build(inserts={"r": [(1000 + i, "c")]})
                template.apply(changeset)
                log.append(changeset)
                i += 1

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            pools = [
                ConnectionPool(template, size=2, mutation_log=log)
                for _ in range(5)
            ]
        finally:
            stop.set()
            thread.join()
        # Distinct keys, compared as sets: the pre-clone stamp is
        # deliberately conservative, so a write in flight during clone()
        # may be replayed onto a clone that already contains it — a
        # bounded duplicate, never a lost update.
        expected = {tuple(row) for row in template.rows("r")}
        for pool in pools:
            backend = pool.acquire(min_lsn=log.lsn)
            assert {tuple(row) for row in backend.rows("r")} == expected
            pool.release(backend)
            pool.close()
        template.close()

    def test_discarded_clone_replacement_is_stamped_conservatively(self):
        """A replacement clone's LSN is read before clone(), not after."""
        template = SQLiteBackend(check_same_thread=False)
        template.create_table("r", 2, ("a", "b"))
        template.insert_many("r", [(1, "x")])
        log = MutationLog()
        pool = ConnectionPool(template, size=1, mutation_log=log)
        backend = pool.acquire()
        # a log entry SQLite cannot apply poisons the checkin replay
        log.append(ChangeSet.build(inserts={"r": [((1, 2), "bad")]}))
        original_clone = template.clone

        def clone_then_write():
            clone = original_clone()
            changeset = ChangeSet.build(inserts={"r": [(7, "late")]})
            template.apply(changeset)
            log.append(changeset)
            return clone

        template.clone = clone_then_write
        # The failed replay discards the clone; a replacement is cloned
        # from the template — during which the "late" write lands.
        with pytest.raises(Exception):
            pool.release(backend)
        template.clone = original_clone
        # The replacement was stamped with the pre-clone LSN, so the late
        # write is replayed at this checkout instead of silently skipped.
        replacement = pool.acquire(min_lsn=log.lsn)
        assert multiset(replacement.rows("r")) == multiset(
            template.rows("r")
        )
        pool.release(replacement)
        pool.close()
        template.close()

    def test_file_backed_clones_skip_replay(self, tmp_path):
        template = SQLiteBackend(str(tmp_path / "data.db"))
        template.create_table("r", 2, ("a", "b"))
        template.insert_many("r", [(1, "x")])
        log = MutationLog()
        pool = ConnectionPool(template, size=1, mutation_log=log)
        changeset = ChangeSet.build(inserts={"r": [(2, "y")]})
        template.apply(changeset)
        log.append(changeset)
        with pool.connection() as backend:
            # shared file: the committed write is simply visible
            assert multiset(backend.rows("r")) == multiset([(1, "x"), (2, "y")])
        assert pool.stats().catchups == 0
        pool.close()
        template.close()


# ----------------------------------------------------------------------
# Differential oracle under interleaved queries and change sets
# ----------------------------------------------------------------------
def replicated_spec(configuration, replicas, child):
    if child == "sharded":
        return configuration.create_backend(
            "replicated", replicas=replicas, child="sharded"
        )
    return configuration.create_backend(
        "replicated", replicas=replicas, child=child
    )


@pytest.mark.parametrize("replicas", (2, 3))
@pytest.mark.parametrize("child", ("sqlite", "sharded"))
@pytest.mark.parametrize("seed", range(3))
class TestDifferentialUnderUpdates:
    def test_replicated_agrees_with_oracle_under_interleaving(
        self, query_generator, replicas, child, seed
    ):
        configuration = small_xmark()
        oracle = MarsExecutor(configuration, backend="memory")
        replicated = MarsExecutor(
            configuration,
            backend=replicated_spec(configuration, replicas, child),
        )
        try:
            generator = query_generator(oracle.backend, seed + 7000)
            updates = UpdateStreamGenerator.from_backend(
                oracle.backend, UPDATABLE_TABLES, seed=seed + 7000
            )
            for step in range(6):
                changeset = updates.next_changeset()
                oracle.backend.apply(changeset)
                replicated.backend.apply(changeset)
                for table in changeset.relations():
                    assert multiset(replicated.backend.rows(table)) == multiset(
                        updates.expected_rows(table)
                    ), f"state divergence on {table} at step {step}"
                for index in range(3):
                    query = generator.conjunctive(f"d{seed}_{step}_{index}")
                    assert multiset(replicated.backend.execute(query)) == multiset(
                        oracle.backend.execute(query)
                    ), f"set divergence seed={seed} step={step} query={query}"
        finally:
            replicated.backend.close()
            oracle.close()


# ----------------------------------------------------------------------
# Service-level live updates
# ----------------------------------------------------------------------
class TestServiceLiveUpdates:
    def test_publish_sees_own_update_without_rebuild(self, mars_backend):
        configuration = small_xmark()
        with PublishingService(configuration, pool_size=2) as service:
            query = xmark.query_item_names()
            before = service.publish(query)
            victim = tuple(before[0])
            lsn = service.update(
                ChangeSet.build(
                    inserts={"itemName": [("item_live_1", "fresh_gadget")]},
                    deletes={"itemName": [victim]},
                )
            )
            assert lsn >= 1
            after = service.publish(query)
            assert ("item_live_1", "fresh_gadget") in {tuple(r) for r in after}
            assert victim not in {tuple(r) for r in after}
            stats = service.stats()
            assert stats.updates_applied == 1
            assert stats.last_write_lsn == lsn

    def test_empty_update_is_a_noop(self):
        configuration = small_xmark()
        with PublishingService(configuration, pool_size=1) as service:
            assert service.update(ChangeSet.build()) == 0
            assert service.stats().updates_applied == 0

    def test_drift_trigger_recollects_statistics_and_flushes_plans(self):
        configuration = small_xmark()
        with PublishingService(
            configuration, pool_size=1, drift_threshold=0.05
        ) as service:
            query = xmark.query_item_names()
            service.publish(query)
            assert len(service.plan_cache) >= 1
            rows = [(f"item_bulk_{i}", f"gadget_{i}") for i in range(40)]
            service.update(ChangeSet.build(inserts={"itemName": rows}))
            stats = service.stats()
            assert stats.statistics_refreshes >= 1
            # attach_statistics flushed every cached plan
            assert stats.cache.invalidations >= 1
            # and the service still serves (recompiles the plan)
            assert len(service.publish(query)) == len(rows) + 12

    def test_drift_can_be_disabled(self):
        configuration = small_xmark()
        with PublishingService(
            configuration, pool_size=1, drift_threshold=None
        ) as service:
            rows = [(f"item_bulk_{i}", f"g{i}") for i in range(60)]
            service.update(ChangeSet.build(inserts={"itemName": rows}))
            assert service.stats().statistics_refreshes == 0

    def test_sharded_update_routes_and_serves(self):
        configuration = small_xmark()
        configuration.backend = "sharded"
        configuration.shard_count = 3
        with PublishingService(configuration, pool_size=2) as service:
            query = xmark.query_item_names()
            before = {tuple(r) for r in service.publish(query)}
            service.update(
                ChangeSet.build(inserts={"itemName": [("item_sh_1", "routed")]})
            )
            after = {tuple(r) for r in service.publish(query)}
            assert after == before | {("item_sh_1", "routed")}
            # the new row lives on exactly one shard
            counts = service.executor.backend.fragment_cardinalities("itemName")
            assert sum(counts) == len(after)

    def test_killed_replica_fails_over_mid_publish(self):
        configuration = small_xmark()
        template = configuration.create_backend(
            "replicated", replicas=2, child="sqlite"
        )
        service = PublishingService(
            configuration, backend=template, pool_size=2
        )
        try:
            query = xmark.query_item_names()
            expected = multiset(service.publish(query))
            errors = []
            results = []
            barrier = threading.Barrier(4)

            def publisher():
                barrier.wait()
                try:
                    for _ in range(15):
                        results.append(multiset(service.publish(query)))
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=publisher) for _ in range(3)]
            for thread in threads:
                thread.start()
            barrier.wait()
            # kill replica 0 everywhere: the template and every pooled clone
            for clone in list(service.pool._all):
                victim = clone.replicas[0]
                if not victim.closed:
                    victim.close()
            template.replicas[0].close()
            for thread in threads:
                thread.join()
            assert not errors, errors[:1]
            assert all(result == expected for result in results)
            survivors = sum(
                clone.stats().reads_per_replica[1]
                for clone in service.pool._all
            )
            assert survivors > 0
        finally:
            service.close(force=True)
            if not template.closed:
                template.close()


# ----------------------------------------------------------------------
# Rebalancing
# ----------------------------------------------------------------------
def sharded_fixture(shards=2):
    backend = ShardedBackend(
        shards=shards,
        children="memory",
        partition_keys={"orders": "customer"},
    )
    backend.create_table("orders", 3, ("customer", "item", "qty"))
    backend.create_table("cities", 2, ("city", "country"))
    orders = [(f"c{i % 17}", f"item{i % 5}", i % 7) for i in range(80)]
    cities = [(f"city{i}", "xy") for i in range(4)]
    backend.insert_many("orders", orders)
    backend.insert_many("cities", cities)
    return backend, orders, cities


def orders_query():
    c, i, q = Variable("c"), Variable("i"), Variable("q")
    return ConjunctiveQuery("all_orders", (c, i, q), (RelationalAtom("orders", (c, i, q)),))


class TestRebalancer:
    @pytest.mark.parametrize("new_shards", (1, 3, 5))
    def test_offline_split_and_merge_preserve_data(self, new_shards):
        backend, orders, cities = sharded_fixture(shards=2)
        expected = multiset(backend.execute(orders_query()))
        report = Rebalancer(backend, shards=new_shards).run()
        assert report.new_shard_count == new_shards
        assert backend.shard_count == new_shards
        assert backend.layout_version == 1
        assert multiset(backend.execute(orders_query())) == expected
        # every partitioned row sits on the shard its partitioner names
        spec = backend.partition_spec("orders")
        for shard, child in enumerate(backend.children):
            for row in child.rows("orders"):
                assert (
                    spec.partitioner.shard_of(row[spec.position], new_shards)
                    == shard
                )
            # broadcast tables are complete on every shard
            assert child.cardinality("cities") == len(cities)
        backend.close()

    def test_replay_skips_changes_already_in_the_snapshot(self):
        backend, orders, cities = sharded_fixture(shards=2)
        log = MutationLog()
        rebalancer = Rebalancer(backend, shards=3)
        rebalancer.stage()
        # orders is copied at LSN 0; then a write lands on the live layout
        rebalancer.copy_table("orders", snapshot_lsn=log.lsn)
        mid = ChangeSet.build(inserts={"orders": [("c_mid", "itemX", 1)]})
        backend.apply(mid)
        log.append(mid)
        # cities is copied after that write (snapshot already reflects it)
        rebalancer.copy_table("cities", snapshot_lsn=log.lsn)
        assert rebalancer.replay(log) == 1
        old_children = rebalancer.cutover()
        for child in old_children:
            child.close()
        rows = {tuple(row) for row in backend.rows("orders")}
        assert ("c_mid", "itemX", 1) in rows
        assert len(rows) == len({tuple(o) for o in orders}) + 1
        # the broadcast table was not double-applied anywhere
        for child in backend.children:
            assert child.cardinality("cities") == len(cities)
        backend.close()

    def test_cutover_without_copy_is_rejected(self):
        backend, _orders, _cities = sharded_fixture()
        rebalancer = Rebalancer(backend, shards=3)
        rebalancer.stage()
        with pytest.raises(StorageError):
            rebalancer.cutover()
        rebalancer.abort()
        backend.close()

    def test_rebalancer_requires_sharded(self):
        with pytest.raises(StorageError):
            Rebalancer(MemoryBackend(), shards=2)


class TestServiceRebalance:
    def test_rebalance_requires_sharded_deployment(self):
        configuration = small_xmark()
        configuration.backend = "memory"  # explicitly unsharded
        with PublishingService(configuration, pool_size=1) as service:
            with pytest.raises(StorageError):
                service.rebalance(shards=3)

    def test_rebalance_while_publishing_is_linearizable(self):
        """Reads during an online split observe a prefix of the write stream.

        One writer inserts sequence-numbered items; concurrent readers
        publish and must always see ``{0..k}`` for some ``k`` (snapshot =
        log prefix), never a gap; the final state equals the oracle.
        """
        configuration = small_xmark()
        configuration.backend = "sharded"
        configuration.shard_count = 2
        service = PublishingService(configuration, pool_size=2)
        try:
            query = xmark.query_item_names()
            base = {tuple(r) for r in service.publish(query)}
            stop = threading.Event()
            errors = []
            written = []

            def writer():
                index = 0
                while not stop.is_set() and index < 400:
                    try:
                        service.update(
                            ChangeSet.build(
                                inserts={
                                    "itemName": [(f"item_seq_{index}", f"n{index}")]
                                }
                            )
                        )
                        written.append(index)
                        index += 1
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)
                        return

            def reader():
                while not stop.is_set():
                    try:
                        rows = {tuple(r) for r in service.publish(query)}
                    except Exception as error:  # noqa: BLE001
                        errors.append(error)
                        return
                    seen = sorted(
                        int(name.split("_")[-1])
                        for name, _value in rows
                        if name.startswith("item_seq_")
                    )
                    if seen != list(range(len(seen))):
                        errors.append(
                            AssertionError(f"non-prefix read: {seen}")
                        )
                        return
                    missing = base - rows
                    if missing:
                        errors.append(
                            AssertionError(f"base rows vanished: {missing}")
                        )
                        return

            threads = [threading.Thread(target=writer)] + [
                threading.Thread(target=reader) for _ in range(2)
            ]
            for thread in threads:
                thread.start()
            report = service.rebalance(shards=3)
            stop.set()
            for thread in threads:
                thread.join()
            assert not errors, errors[:1]
            assert report.new_shard_count == 3
            assert len(service.shard_pools) == 3
            assert service.stats().rebalances == 1
            # post-rebalance state equals the oracle
            final = {tuple(r) for r in service.publish(query)}
            expected = base | {
                (f"item_seq_{i}", f"n{i}") for i in written
            }
            assert final == expected
            # and further writes land on the new layout
            service.update(
                ChangeSet.build(inserts={"itemName": [("item_post", "x")]})
            )
            assert ("item_post", "x") in {
                tuple(r) for r in service.publish(query)
            }
        finally:
            service.close(force=True)
