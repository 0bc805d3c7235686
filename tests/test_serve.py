"""The serving subsystem: pool, plan cache, service, and backend lifecycle.

The headline test is the concurrency stress: ≥8 threads share one
pooled-SQLite :class:`PublishingService`, every thread must see exactly the
rows serial execution produces (no cross-talk, no wrong-thread
``sqlite3.ProgrammingError``), and the C&B engine must run once per
distinct query — everything else is served from the plan cache.
"""

import ast
import inspect
import os
import re
import threading
from pathlib import Path

import pytest

from repro.core import MarsConfiguration, MarsExecutor, MarsSystem
from repro.errors import EvaluationError, ReformulationError, StorageError
from repro.logical.atoms import RelationalAtom
from repro.logical.queries import ConjunctiveQuery
from repro.logical.terms import Constant, Variable
from repro.obs import current_span
from repro.serve import (
    ConnectionPool,
    PlanCache,
    PoolExhaustedError,
    PublishingService,
)
from repro.replica import ChangeSet, ReplicatedBackend
from repro.storage.backends import (
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    register_backend,
)
from repro.workloads import medical
from repro.xbind.query import XBindQuery
from repro.xbind.atoms import PathAtom


def multiset(rows):
    return sorted(map(repr, rows))


# ----------------------------------------------------------------------
# SQLiteBackend lifecycle (the thread-affinity / leaked-connection fix)
# ----------------------------------------------------------------------
class TestSQLiteLifecycle:
    def test_double_close_raises(self):
        backend = SQLiteBackend()
        backend.close()
        assert backend.closed
        with pytest.raises(StorageError):
            backend.close()

    def test_use_after_close_raises(self):
        backend = SQLiteBackend()
        backend.create_table("r", 1)
        backend.close()
        x = Variable("x")
        query = ConjunctiveQuery("q", (x,), (RelationalAtom("r", (x,)),))
        for call in (
            lambda: backend.execute(query),
            lambda: backend.rows("r"),
            lambda: backend.insert_many("r", [(1,)]),
            lambda: backend.create_table("s", 1),
            lambda: backend.cardinalities(),
            lambda: backend.cardinality("r"),
            lambda: backend.clone(),
        ):
            with pytest.raises(StorageError):
                call()

    def test_context_manager_tolerates_inner_close(self):
        with SQLiteBackend() as backend:
            backend.close()
        assert backend.closed

    def test_memory_backend_matches_lifecycle(self):
        backend = MemoryBackend()
        backend.close()
        with pytest.raises(StorageError):
            backend.close()
        with pytest.raises(StorageError):
            backend.clone()

    def test_same_thread_affinity_is_kept_by_default(self):
        """The raw backend still refuses cross-thread use (sane default)."""
        backend = SQLiteBackend()
        backend.create_table("r", 1)
        backend.insert_many("r", [(1,)])
        errors = []

        def use():
            try:
                backend.rows("r")
            except Exception as error:  # sqlite3.ProgrammingError
                errors.append(error)

        thread = threading.Thread(target=use)
        thread.start()
        thread.join()
        assert errors, "expected wrong-thread use to be rejected"
        backend.close()


class TestSQLiteClone:
    def test_clone_snapshots_memory_database(self):
        backend = SQLiteBackend()
        backend.create_table("r", 2, ("a", "b"))
        backend.insert_many("r", [(1, "x"), (2, "y")])
        clone = backend.clone()
        assert tuple(clone.rows("r")) == ((1, "x"), (2, "y"))
        # the clone is independent: writes to the template do not leak in
        backend.insert_many("r", [(3, "z")])
        assert clone.cardinality("r") == 2
        clone.close()
        backend.close()

    def test_clone_is_thread_portable(self):
        backend = SQLiteBackend()
        backend.create_table("r", 1)
        backend.insert_many("r", [(7,)])
        clone = backend.clone()
        seen = []

        def use():
            seen.append(tuple(clone.rows("r")))

        thread = threading.Thread(target=use)
        thread.start()
        thread.join()
        assert seen == [((7,),)]
        clone.close()
        backend.close()

    def test_clone_snapshots_unnamed_temp_database(self):
        """path='' is a per-connection temp db and needs the backup path too."""
        backend = SQLiteBackend(path="")
        backend.create_table("r", 1)
        backend.insert_many("r", [(5,)])
        clone = backend.clone()
        assert tuple(clone.rows("r")) == ((5,),)
        clone.close()
        backend.close()

    def test_clone_of_file_database_shares_data(self, tmp_path):
        path = str(tmp_path / "clone.db")
        backend = SQLiteBackend(path=path)
        backend.create_table("r", 1)
        backend.insert_many("r", [(1,)])
        clone = backend.clone()
        assert tuple(clone.rows("r")) == ((1,),)
        clone.close()
        backend.close()


# ----------------------------------------------------------------------
# ConnectionPool
# ----------------------------------------------------------------------
class TestConnectionPool:
    def build_template(self):
        backend = SQLiteBackend()
        backend.create_table("r", 1)
        backend.insert_many("r", [(1,), (2,)])
        return backend

    def test_checkout_checkin_cycle(self):
        template = self.build_template()
        pool = ConnectionPool(template, size=2)
        first = pool.acquire()
        second = pool.acquire()
        assert first is not second
        pool.release(first)
        third = pool.acquire()
        assert third is first  # LIFO reuse of the warm connection
        pool.release(second)
        pool.release(third)
        stats = pool.stats()
        assert stats.created == 2 and stats.checkouts == 3
        assert stats.peak_in_use == 2 and stats.in_use == 0
        pool.close()
        template.close()

    def test_exhausted_pool_times_out(self):
        template = self.build_template()
        pool = ConnectionPool(template, size=1)
        held = pool.acquire()
        with pytest.raises(PoolExhaustedError) as excinfo:
            pool.acquire(timeout=0.05)
        # admission control reports the pool state at rejection time
        assert excinfo.value.stats.in_use == 1
        assert excinfo.value.stats.size == 1
        pool.release(held)
        pool.close()
        template.close()

    def test_full_wait_queue_rejects_immediately(self):
        """max_waiters bounds the queue: excess acquires shed, not parked."""
        template = self.build_template()
        pool = ConnectionPool(template, size=1, max_waiters=1)
        held = pool.acquire()
        queued = threading.Thread(target=lambda: pool.acquire(timeout=5))
        queued.start()
        deadline = 50
        while pool.stats().waiting < 1 and deadline:
            deadline -= 1
            threading.Event().wait(0.01)
        assert pool.stats().waiting == 1
        # the queue is full: this acquire must fail fast, without a timeout
        with pytest.raises(PoolExhaustedError) as excinfo:
            pool.acquire(timeout=30)
        assert excinfo.value.stats.waiting == 1
        assert excinfo.value.stats.rejections == 1
        pool.release(held)  # unblocks the queued thread
        queued.join(timeout=10)
        stats = pool.stats()
        assert stats.rejections == 1 and stats.waiting == 0
        pool.close(force=True)  # queued thread still holds its checkout
        template.close()

    def test_close_with_checkouts_fails_loudly(self):
        template = self.build_template()
        pool = ConnectionPool(template, size=2)
        checked_out = pool.acquire()
        with pytest.raises(StorageError):
            pool.close()
        assert not pool.closed  # nothing was torn down
        # forced teardown is the explicit escape hatch
        pool.close(force=True)
        with pytest.raises(StorageError):
            pool.acquire()
        # releasing after forced teardown stays safe (already closed)
        pool.release(checked_out)
        assert checked_out.closed
        pool.close()  # idempotent
        assert not template.closed
        template.close()

    def test_force_close_closes_checked_out_clones(self):
        """Regression: close(force=True) used to leak abandoned checkouts.

        A clone checked out and never released kept its SQLite handle open
        forever; forced teardown must sweep every clone it created, not
        just the idle ones.
        """
        template = self.build_template()
        pool = ConnectionPool(template, size=3)
        abandoned = pool.acquire()
        also_abandoned = pool.acquire()
        assert not abandoned.closed and not also_abandoned.closed
        pool.close(force=True)
        # the checked-out clones are closed immediately, not "eventually"
        assert abandoned.closed
        assert also_abandoned.closed
        # and the closed handle is genuinely unusable
        with pytest.raises(StorageError):
            abandoned.rows("r")
        template.close()

    def test_invalid_size_rejected(self):
        template = self.build_template()
        with pytest.raises(StorageError):
            ConnectionPool(template, size=0)
        template.close()

    def test_context_manager(self):
        template = self.build_template()
        with ConnectionPool(template, size=1) as pool:
            with pool.connection() as backend:
                x = Variable("x")
                rows = backend.execute(
                    ConjunctiveQuery("q", (x,), (RelationalAtom("r", (x,)),))
                )
                assert multiset(rows) == multiset([(1,), (2,)])
        assert pool.closed
        template.close()


# ----------------------------------------------------------------------
# PlanCache
# ----------------------------------------------------------------------
class TestPlanCache:
    def test_lru_eviction_order(self):
        cache = PlanCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh "a"; "b" is now LRU
        cache.put("c", 3)
        assert "b" not in cache and "a" in cache and "c" in cache
        stats = cache.stats()
        assert stats.evictions == 1 and stats.current_size == 2

    def test_counters_and_hit_rate(self):
        cache = PlanCache(maxsize=4)
        assert cache.get("missing") is None
        cache.put("k", "plan")
        assert cache.get("k") == "plan"
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.hit_rate == 0.5

    def test_none_is_rejected(self):
        cache = PlanCache()
        with pytest.raises(ValueError):
            cache.put("k", None)
        with pytest.raises(ValueError):
            PlanCache(maxsize=0)

    def test_fingerprint_is_rename_invariant(self):
        def query(prefix):
            case_el = Variable(f"{prefix}_el")
            diag = Variable(f"{prefix}_diag")
            return XBindQuery(
                f"{prefix}_q",
                (diag,),
                (
                    PathAtom("//case", case_el, document="case.xml"),
                    PathAtom("./diag/text()", diag, source=case_el),
                ),
            )

        assert query("a").fingerprint() == query("b").fingerprint()
        other = XBindQuery(
            "c",
            (Variable("x"),),
            (PathAtom("//case/diag/text()", Variable("x"), document="case.xml"),),
        )
        assert other.fingerprint() != query("a").fingerprint()

    def test_fingerprint_distinguishes_constants_from_variables(self):
        x = Variable("x")
        with_constant = XBindQuery(
            "q", (x,), (RelationalAtom("r", (x, Constant("x"))),)
        )
        with_variable = XBindQuery(
            "q", (x,), (RelationalAtom("r", (x, Variable("y"))),)
        )
        assert with_constant.fingerprint() != with_variable.fingerprint()


# ----------------------------------------------------------------------
# PublishingService
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def medical_service():
    configuration = medical.build_configuration()
    configuration.backend = "sqlite"
    service = PublishingService(configuration, pool_size=4)
    yield service
    service.close()


class TestPublishingService:
    def test_publish_matches_direct_execution(self, medical_service):
        query = medical.client_query()
        rows = medical_service.publish(query)
        expected = medical_service.executor.execute_original(query)
        assert multiset(rows) == multiset(expected)

    def test_repeated_query_hits_plan_cache(self):
        configuration = medical.build_configuration()
        configuration.backend = "sqlite"
        with PublishingService(configuration, pool_size=2) as service:
            query = medical.client_query()
            first = service.publish(query)
            # Make re-entering the C&B engine an error: a cached plan must
            # never reach reformulate() on the underlying engine again.
            def boom(*args, **kwargs):
                raise AssertionError("C&B engine re-entered on a cached query")

            service.system._engine.reformulate = boom
            renamed = query.substitute(
                {v: Variable(f"fresh_{v.name}") for v in query.variables()}
            )
            second = service.publish(renamed)
            assert multiset(first) == multiset(second)
            stats = service.stats()
            assert stats.cache.hits >= 1
            assert stats.reformulations_computed == 1

    def test_unreformulable_query_raises(self, medical_service):
        ghost = Variable("g")
        query = XBindQuery(
            "Ghost", (ghost,), (PathAtom("//nosuch", ghost, document="case.xml"),)
        )
        with pytest.raises(ReformulationError):
            medical_service.publish(query)

    def test_publish_many_reuses_one_connection(self, medical_service):
        before = medical_service.pool.stats().checkouts
        results = medical_service.publish_many(
            [medical.client_query(), medical.drug_usage_query()]
        )
        assert len(results) == 2 and all(results)
        assert medical_service.pool.stats().checkouts == before + 1

    def test_publish_many_enforces_publish_guards(self):
        queries = [medical.client_query()]
        configuration = medical.build_configuration()
        service = PublishingService(configuration, pool_size=1)
        service.close()
        with pytest.raises(StorageError):
            service.publish_many(queries)

    def test_system_service_factory(self):
        configuration = medical.build_configuration()
        configuration.backend = "sqlite"
        system = MarsSystem(configuration)
        with system.service(pool_size=2) as service:
            assert service.system is system
            assert system.plan_cache is service.plan_cache
            assert service.publish(medical.client_query())

    def test_closed_service_rejects_publish(self):
        configuration = medical.build_configuration()
        service = PublishingService(configuration, pool_size=1)
        service.close()
        with pytest.raises(StorageError):
            service.publish(medical.client_query())

    def test_failed_pool_construction_closes_template(self):
        configuration = medical.build_configuration()
        configuration.backend = "sqlite"
        shared = configuration.create_backend()
        with pytest.raises(StorageError):
            PublishingService(configuration, backend=shared, pool_size=0)
        # the injected backend stays the caller's, but the pool failure must
        # not leave an owned template connection dangling either
        assert not shared.closed
        shared.close()
        broken = MarsConfiguration("broken")
        broken.pool_size = 0
        with pytest.raises(StorageError):
            PublishingService(broken)

    def test_cold_query_counts_one_reformulation_across_threads(self):
        """Threads racing on an uncached query must not over-count C&B runs."""
        configuration = medical.build_configuration()
        with PublishingService(configuration, pool_size=4) as service:
            query = medical.client_query()
            barrier = threading.Barrier(THREADS)
            errors = []

            def worker():
                try:
                    barrier.wait(timeout=10)
                    service.publish(query)
                except Exception as error:
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            stats = service.stats()
            assert stats.reformulations_computed == 1
            assert stats.cache.misses == 1


# ----------------------------------------------------------------------
# The acceptance-criteria stress test
# ----------------------------------------------------------------------
THREADS = 8
ROUNDS = 6


class TestConcurrencyStress:
    def test_threads_share_pooled_sqlite_service(self):
        configuration = medical.build_configuration()
        configuration.backend = "sqlite"
        queries = [medical.client_query(), medical.drug_usage_query()]
        with PublishingService(configuration, pool_size=4) as service:
            # serial ground truth, computed before any concurrency
            serial = {q.name: multiset(service.publish(q)) for q in queries}
            errors = []
            mismatches = []
            started = threading.Barrier(THREADS)

            def worker():
                try:
                    started.wait(timeout=10)
                    for _ in range(ROUNDS):
                        for query in queries:
                            rows = multiset(service.publish(query))
                            if rows != serial[query.name]:
                                mismatches.append(query.name)
                except Exception as error:
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, f"workers raised: {errors!r}"
            assert not mismatches, f"cross-talk on: {set(mismatches)}"

            stats = service.stats()
            total = len(queries) * (1 + THREADS * ROUNDS)
            assert stats.queries_served == total
            # one C&B run per distinct query; the rest from the plan cache
            assert stats.reformulations_computed == len(queries)
            assert stats.cache.misses == len(queries)
            assert stats.cache.hits == total - len(queries)
            assert stats.pool.created == 4
            assert stats.pool.checkouts == total

    def test_loud_close_blocks_midflight_shutdown(self):
        configuration = medical.build_configuration()
        service = PublishingService(configuration, pool_size=2)
        # the single pool, or any shard's pool on a sharded default backend
        pool = service.pool if service.pool is not None else service.shard_pools[0]
        connection = pool.acquire()
        with pytest.raises(StorageError):
            service.close()
        assert not service.closed
        pool.release(connection)
        service.close()
        assert service.closed

    def test_stress_on_memory_backend_for_symmetry(self):
        configuration = medical.build_configuration()
        configuration.backend = "memory"
        query = medical.client_query()
        with PublishingService(configuration, pool_size=4) as service:
            serial = multiset(service.publish(query))
            errors = []

            def worker():
                try:
                    for _ in range(ROUNDS):
                        assert multiset(service.publish(query)) == serial
                except Exception as error:
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors


# ----------------------------------------------------------------------
# Plan-cache invalidation on configuration edits
# ----------------------------------------------------------------------
class TestCacheInvalidation:
    def test_evict_where_drops_matching_keys(self):
        cache = PlanCache(maxsize=8)
        cache.put((1, "a"), "old")
        cache.put((1, "b"), "old")
        cache.put((2, "a"), "new")
        dropped = cache.evict_where(lambda key: key[0] == 1)
        assert dropped == 2
        assert (2, "a") in cache and (1, "a") not in cache
        assert cache.stats().invalidations == 2
        # LRU capacity evictions are counted separately
        assert cache.stats().evictions == 0

    def test_configuration_edit_bumps_version(self):
        configuration = medical.build_configuration()
        before = configuration.version
        configuration.add_relation("audit", ("who", "what"))
        assert configuration.version == before + 1

    def test_stale_plans_flushed_on_view_change(self):
        """A configuration edit must recompile and flush dependent plans."""
        from repro.workloads.medical import cache_view, CACHE_DOCUMENT

        configuration = medical.build_configuration()
        cache = PlanCache(maxsize=16)
        system = MarsSystem(configuration, plan_cache=cache)
        query = medical.client_query()
        first = system.reformulate(query)
        assert first.found and len(cache) == 1
        stale_keys = cache.keys()
        # Declare the redundant cache document mid-flight (a new LAV view):
        # the reformulation search space changes, so the cached plan is stale.
        view = cache_view()
        configuration.add_xml_view(view, published=False)
        configuration.add_proprietary_document(CACHE_DOCUMENT)
        configuration.public_documents.pop(CACHE_DOCUMENT, None)
        second = system.reformulate(query)
        assert second.found
        # old-version entries were evicted, the new plan is cached under
        # the new version key
        assert all(key not in cache for key in stale_keys)
        assert cache.stats().invalidations >= 1
        assert len(cache) == 1
        # the recompiled system sees the new view: the cache document's
        # relations are now legal reformulation targets
        assert any("cache" in relation for relation in system.target_relations)

    def test_cached_plans_survive_unrelated_lookups(self):
        configuration = medical.build_configuration()
        cache = PlanCache(maxsize=16)
        system = MarsSystem(configuration, plan_cache=cache)
        system.reformulate(medical.client_query())
        hits_before = cache.stats().hits
        system.reformulate(medical.client_query())
        assert cache.stats().hits == hits_before + 1


# ----------------------------------------------------------------------
# PublishingService over the sharded backend (per-shard pools)
# ----------------------------------------------------------------------
class TestShardedService:
    def build_service(self, **kwargs):
        configuration = medical.build_configuration()
        configuration.backend = "sharded"
        configuration.shard_count = 3
        configuration.shard_children = ("memory", "sqlite", "memory")
        return PublishingService(configuration, **kwargs)

    def test_publish_matches_direct_execution(self):
        with self.build_service(pool_size=2) as service:
            for query in (medical.client_query(), medical.drug_usage_query()):
                rows = multiset(service.publish(query))
                expected = multiset(service.executor.execute_original(query))
                assert rows == expected

    def test_per_shard_pools_and_stats(self):
        with self.build_service(pool_size=2) as service:
            assert service.pool is None
            assert len(service.shard_pools) == 3
            service.publish(medical.client_query())
            stats = service.stats()
            assert len(stats.shard_pools) == 3
            assert stats.shard_pools[0].label == "shard-0"
            assert stats.pool.label == "sharded(3)"
            assert stats.pool.checkouts == sum(
                pool.checkouts for pool in stats.shard_pools
            )
            assert stats.router is not None and stats.router.queries >= 1

    def test_pruned_plan_checks_out_one_shard_only(self):
        """A partition-key-bound plan occupies exactly one shard's pool."""
        with self.build_service(pool_size=2) as service:
            template = service.executor.backend
            x = Variable("x")
            plan = ConjunctiveQuery(
                "pruned",
                (x,),
                (RelationalAtom("patientDiag", (Constant("ana"), x)),),
            )
            route = template.route_plan(plan)
            assert [d.mode for _q, d in route.decisions] == ["single"]
            target = route.needed_shards[0]
            before = [pool.stats().checkouts for pool in service.shard_pools]
            rows, modes = service._run_plan(plan, distinct=True)
            assert rows == [("flu",)] and modes == ("single",)
            after = [pool.stats().checkouts for pool in service.shard_pools]
            deltas = [b - a for a, b in zip(before, after)]
            assert sum(deltas) == 1 and deltas[target] == 1

    @staticmethod
    def pruned(patient):
        x = Variable("x")
        return ConjunctiveQuery(
            f"pruned_{patient}",
            (x,),
            (RelationalAtom("patientDiag", (Constant(patient), x)),),
        )

    def test_a_batch_naming_the_same_units_checks_out_once(self):
        with self.build_service(pool_size=2) as service:
            query = medical.client_query()
            service.publish(query)
            before = [pool.stats().checkouts for pool in service.shard_pools]
            service.publish(query)
            single = [pool.stats().checkouts for pool in service.shard_pools]
            assert len(service.publish_many([query, query, query])) == 3
            after = [pool.stats().checkouts for pool in service.shard_pools]
            assert [b - a for a, b in zip(before, single)] == [1, 1, 1]
            assert [b - a for a, b in zip(single, after)] == [1, 1, 1]
            assert all(pool.stats().in_use == 0 for pool in service.shard_pools)

    def test_a_batch_never_holds_more_than_one_plan_needs(self, monkeypatch):
        """Plans naming other units release the held connections before
        checking out: a pruned batch holds one connection at a time."""
        with self.build_service(pool_size=2) as service:
            pools = service.shard_pools
            plans = [self.pruned(p) for p in ("ana", "eve", "bob")]
            targets = [
                service.executor.backend.route_plan(plan).needed_shards
                for plan in plans
            ]
            assert targets[0] == targets[2] != targets[1]
            assert all(len(target) == 1 for target in targets)
            holding = []
            for pool in pools:
                def counted(*args, _acquire=pool.acquire, **kwargs):
                    connection = _acquire(*args, **kwargs)
                    holding.append(sum(p.stats().in_use for p in pools))
                    return connection
                monkeypatch.setattr(pool, "acquire", counted)
            before = [pool.stats().checkouts for pool in pools]
            held = {}
            try:
                for plan, target in zip(plans, targets):
                    rows, modes = service._run_plan(plan, True, held)
                    assert modes == ("single",) and len(rows) == 1
                    assert tuple(held) == target
            finally:
                service._release(held)
            after = [pool.stats().checkouts for pool in pools]
            assert holding == [1, 1, 1]
            assert sum(b - a for a, b in zip(before, after)) == 3
            assert all(pool.stats().in_use == 0 for pool in pools)

    def test_concurrent_sharded_publishing(self):
        # pool_size=4 per shard: with 8 worker threads the bounded wait
        # queue (2 * size waiters) admits everyone; smaller pools would
        # correctly shed load with PoolExhaustedError instead.
        with self.build_service(pool_size=4) as service:
            queries = [medical.client_query(), medical.drug_usage_query()]
            serial = {q.name: multiset(service.publish(q)) for q in queries}
            errors = []

            def worker():
                try:
                    for _ in range(ROUNDS):
                        for query in queries:
                            assert multiset(service.publish(query)) == serial[
                                query.name
                            ]
                except Exception as error:
                    errors.append(error)

            threads = [threading.Thread(target=worker) for _ in range(THREADS)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors, f"workers raised: {errors!r}"
            stats = service.stats()
            assert stats.queries_served == len(queries) * (1 + THREADS * ROUNDS)


# ----------------------------------------------------------------------
# What a backend declares is all the service knows about storage topology
# ----------------------------------------------------------------------
class ToyLeaf(StorageBackend):
    """A from-scratch engine: only the abstract methods plus ``clone``."""

    def __init__(self, inner=None):
        self.inner = inner if inner is not None else MemoryBackend()

    def create_table(self, name, arity, attributes=None):
        self.inner.create_table(name, arity, attributes)

    def has_table(self, name):
        return self.inner.has_table(name)

    def clear_table(self, name):
        self.inner.clear_table(name)

    def apply(self, changeset):
        return self.inner.apply(changeset)

    @property
    def table_names(self):
        return self.inner.table_names

    def rows(self, name):
        return self.inner.rows(name)

    def cardinalities(self):
        return self.inner.cardinalities()

    def execute(self, query, distinct=True):
        return self.inner.execute(query, distinct=distinct)

    @property
    def closed(self):
        return self.inner.closed

    def close(self):
        self.inner.close()

    clone_is_snapshot = True

    def clone(self):
        return ToyLeaf(self.inner.clone())


class _ToyRoute:
    """What the service reads off a route: the decisions and the units."""

    class _Decision:
        mode = "single"

    def __init__(self, plan, wing):
        self.decisions = [(plan, self._Decision())]
        self.needed_shards = (wing,)


class ToyMirror(ToyLeaf):
    """Two full copies ("wings") that are pooled and logged separately.

    Neither sharded nor replicated: reads alternate between the wings,
    writes go to both.  Wing 1 is a :class:`ReplicatedBackend`, so the
    deployment also has a replicated store to watch and repair.
    """

    def __init__(self):
        self.wings = (ToyLeaf(), ReplicatedBackend(replicas=2, child="memory"))
        self.inner = self.wings[0]
        self.reads = 0
        self._closed = False

    def storage_units(self):
        return tuple((f"wing-{i}", wing) for i, wing in enumerate(self.wings))

    def replicated_stores(self):
        return (("wing-1", self.wings[1]),)

    def set_event_log(self, events):
        for wing in self.wings:
            wing.set_event_log(events)

    def create_table(self, name, arity, attributes=None):
        for wing in self.wings:
            wing.create_table(name, arity, attributes)

    def clear_table(self, name):
        for wing in self.wings:
            wing.clear_table(name)

    def apply(self, changeset):
        return [wing.apply(changeset) for wing in self.wings][0]

    def route_plan(self, plan):
        self.reads += 1
        wing = self.reads % 2
        # A backend that routes times its own decision, as the sharded one does.
        with current_span().child("route", modes=["single"], shards=[wing]):
            return _ToyRoute(plan, wing)

    def execute_routed(self, route, plan, distinct=True, children=None):
        (wing,) = route.needed_shards
        engine = (children or dict(enumerate(self.wings)))[wing]
        return engine.execute(plan, distinct=distinct)

    def route_changeset(self, changeset):
        return {0: changeset, 1: changeset}

    @property
    def closed(self):
        return self._closed

    def close(self):
        self._closed = True
        for wing in self.wings:
            if not wing.closed:
                wing.close()


register_backend("toy-leaf", ToyLeaf)
register_backend("toy-mirror", ToyMirror)

#: ana takes tamiflu (priced 75), so the client query gains ("gout", "75").
NEW_DIAGNOSIS = ChangeSet.build(inserts={"patientDiag": [("ana", "gout")]})


class TestBackendContract:
    """A registered third-party backend needs no service-side edit."""

    def drive(self, backend, log_dir):
        configuration = medical.build_configuration()
        query = medical.client_query()
        service = PublishingService(
            configuration,
            backend=backend,
            pool_size=2,
            log_dir=str(log_dir),
            log_fsync="off",
        )
        try:
            before = multiset(service.publish(query))
            assert before == multiset(service.executor.execute_original(query))
            assert service.update(NEW_DIAGNOSIS) == 1
            # Read-your-writes on every unit the router may pick.
            for _ in range(2):
                rows = service.publish(query)
                assert len(rows) == len(before) + 1
                assert ("gout", "75") in {tuple(row) for row in rows}
            assert len(service.publish_many([query, query])) == 2
            stats = service.stats()
            assert stats.queries_served == 5 and stats.updates_applied == 1
            assert "pool" in stats.snapshot()
            assert service.health().status == "healthy"
            assert service.checkpoint() == 1
            return service, stats
        except Exception:
            service.close(force=True)
            raise

    def test_toy_leaf_is_one_unit(self, tmp_path):
        service, stats = self.drive("toy-leaf", tmp_path / "log")
        with service:
            assert service.pool is not None and service.shard_pools == ()
            assert stats.pool.label == "toy-leaf(1)" and stats.shard_pools == ()
            assert stats.router is None and stats.replicas is None
            assert sorted(os.listdir(tmp_path / "log")) == ["service"]
            assert service.repair_replicas() == ()
            # The toy explains nothing itself: the profiled run shows the
            # operators its inner engine recorded.
            assert "join-step" in service.explain(medical.client_query())
        assert service.executor.backend.closed

    def test_toy_composite_is_pooled_logged_and_healed_per_unit(self, tmp_path):
        service, stats = self.drive("toy-mirror", tmp_path / "log")
        with service:
            template = service.executor.backend
            assert service.pool is None
            assert [pool.label for pool in service.shard_pools] == ["wing-0", "wing-1"]
            assert stats.pool.label == "toy-mirror(2)"
            assert [pool.label for pool in stats.shard_pools] == ["wing-0", "wing-1"]
            assert stats.pool.checkouts == sum(p.checkouts for p in stats.shard_pools)
            assert all(pool.checkouts for pool in stats.shard_pools)
            assert sorted(os.listdir(tmp_path / "log")) == ["wing-0", "wing-1"]
            # The replicated wing is watched and healed through the log of
            # the unit it is.
            (check,) = [c for c in service.health().checks if c.name == "replicas"]
            assert check.details["wing-1"]["live_replicas"] == 2
            template.wings[1].replicas[0].close()
            assert service.health().status == "degraded"
            (report,) = service.repair_replicas()
            assert report.repaired == (0,)
            assert service.health().status == "healthy"
            assert service.stats().replica_repairs == 1
            expected = multiset(template.wings[0].rows("patientDiag"))
            for replica in template.wings[1].replicas:
                assert multiset(replica.rows("patientDiag")) == expected
        assert template.closed
        # A restart recovers both wings from their own directories.
        with PublishingService(
            medical.build_configuration(),
            backend="toy-mirror",
            pool_size=1,
            log_dir=str(tmp_path / "log"),
            log_fsync="off",
        ) as restarted:
            assert restarted.stats().last_write_lsn == 1
            for _ in range(2):
                rows = restarted.publish(medical.client_query())
                assert ("gout", "75") in {tuple(row) for row in rows}


def deployment(name):
    """(configuration, backend spec) for one topology of the matrix."""
    configuration = medical.build_configuration()
    if name.startswith("sharded"):
        configuration.shard_count = 2
        if name == "sharded-over-replicated":
            configuration.shard_children = ("replicated", "replicated")
        return configuration, "sharded"
    configuration.replica_count = 2
    return configuration, name


class TestUnitLifecycle:
    """One lifecycle, walked over every topology the package ships."""

    @pytest.mark.parametrize(
        "name",
        ["memory", "sqlite", "sharded", "replicated", "sharded-over-replicated"],
    )
    def test_units_logs_health_and_repair_agree(self, name, tmp_path, monkeypatch):
        monkeypatch.setenv("MARS_REPLICAS", "2")
        configuration, backend = deployment(name)
        sharded = name.startswith("sharded")
        labels = ["shard-0", "shard-1"] if sharded else ["service"]
        log_dir = tmp_path / "log"
        with PublishingService(
            configuration, backend=backend, pool_size=1,
            log_dir=str(log_dir), log_fsync="off",
        ) as service:
            units = service.executor.backend.storage_units()
            assert [label for label, _store in units] == labels
            pools = service.shard_pools if sharded else (service.pool,)
            logs = service.shard_logs if sharded else (service.mutation_log,)
            assert [pool.label for pool in pools] == labels
            assert [pool.template for pool in pools] == [s for _l, s in units]
            assert [pool.mutation_log for pool in pools] == list(logs)
            assert sorted(os.listdir(log_dir)) == labels
            assert (service.pool is None) == sharded
            service.update(NEW_DIAGNOSIS)
            assert service.checkpoint() == 1
            # health() and repair_replicas() walk the same stores.
            watched = {
                label: store
                for label, store in service.executor.backend.replicated_stores()
            }
            expected = {
                "replicated": ["template"],
                "sharded-over-replicated": ["shard-0", "shard-1"],
            }.get(name, [])
            assert sorted(watched) == expected
            probes = [c for c in service.health().checks if c.name == "replicas"]
            assert [sorted(c.details) for c in probes] == ([expected] if expected else [])
            for store in watched.values():
                store.replicas[1].close()
            reports = service.repair_replicas()
            assert [r.repaired for r in reports] == [(1,)] * len(expected)
            assert service.health().status == "healthy"
            for store in watched.values():
                assert store.stats().live_replicas == 2
        # The layout guard: the same directory under another topology.
        other = deployment("memory" if sharded else "sharded")
        with pytest.raises(StorageError, match="different deployment layout"):
            PublishingService(
                other[0], backend=other[1], log_dir=str(log_dir), log_fsync="off"
            )


class TestPublishManyIsAccounted:
    def test_batch_moves_the_operational_counters_and_the_audit_log(self, tmp_path):
        queries = [medical.client_query(), medical.drug_usage_query()]
        with PublishingService(
            medical.build_configuration(), pool_size=1,
            audit_dir=str(tmp_path / "audit"),
        ) as service:
            service.publish(queries[0])
            results = service.publish_many(queries)
            stats = service.stats()
            publishes = service.registry.get("mars_publishes_total")
            rows = service.registry.get("mars_published_rows_total")
            latency = service.registry.get("mars_publish_latency_seconds")
            assert stats.queries_served == 3 == publishes.labels().value
            assert rows.labels().value == len(results[0]) * 2 + len(results[1])
            assert latency.labels().count == 3
            audit = service.audit
        entries = [e for e in audit.entries() if e["kind"] == "publish"]
        assert [e["query"] for e in entries] == [
            queries[0].name, queries[0].name, queries[1].name
        ]
        assert [e["rows"] for e in entries[1:]] == [len(r) for r in results]


class TestNoBackendTypeSwitches:
    """The service never asks a backend what kind it is (it asks what it
    declares): a reintroduced type switch or capability probe fails here."""

    SERVE = Path(__file__).resolve().parent.parent / "src" / "repro" / "serve"
    TYPE_SWITCH = re.compile(
        r"isinstance\([^)]*(ShardedBackend|ReplicatedBackend|DurableMutationLog)"
    )
    #: getattr() with a default on anything that holds a backend.
    CAPABILITY_PROBE = re.compile(
        r"getattr\(\s*[\w.]*(backend|template|store|child|replica)\w*\s*,"
    )

    def test_source_scan(self):
        offenders = []
        paths = sorted(self.SERVE.rglob("*.py"))
        assert paths, f"nothing to scan under {self.SERVE}"
        for path in paths:
            for number, line in enumerate(path.read_text().splitlines(), start=1):
                if self.TYPE_SWITCH.search(line) or self.CAPABILITY_PROBE.search(line):
                    offenders.append(f"{path.name}:{number}: {line.strip()}")
        assert not offenders, "\n".join(offenders)

    def test_the_scan_catches_what_it_is_for(self):
        assert self.TYPE_SWITCH.search("if isinstance(template, ShardedBackend):")
        assert self.TYPE_SWITCH.search("isinstance(x, (A, ReplicatedBackend))")
        assert self.CAPABILITY_PROBE.search('getattr(backend, "set_event_log", None)')
        assert self.CAPABILITY_PROBE.search(
            'getattr(self.executor.backend, "explain", None)'
        )
        assert not self.CAPABILITY_PROBE.search('getattr(plan, "name", "")')


def patient_visit(index):
    return ChangeSet.build(inserts={"patientDiag": [(f"visitor{index}", "flu")]})


class TestOneWritePathKeepsTheLsn:
    """Every deployment writes on one path; the LSNs it hands out are the
    ones the unit logs agree with."""

    @pytest.mark.parametrize("backend", ["memory", "sqlite", "replicated"])
    def test_one_unit_lsn_is_the_log_head_across_a_restart(self, tmp_path, backend):
        options = dict(
            backend=backend, pool_size=1, log_dir=str(tmp_path / "log"), log_fsync="off"
        )
        with PublishingService(medical.build_configuration(), **options) as service:
            assert [service.update(patient_visit(i)) for i in range(5)] == [1, 2, 3, 4, 5]
            assert service.stats().last_write_lsn == service.mutation_log.lsn == 5
        with PublishingService(medical.build_configuration(), **options) as restarted:
            assert restarted.stats().last_write_lsn == restarted.mutation_log.lsn == 5
            assert restarted.update(patient_visit(5)) == 6 == restarted.mutation_log.lsn

    @pytest.mark.parametrize("backend", ["sharded", "toy-mirror"])
    def test_split_unit_logs_count_the_pieces_routed_to_them(self, backend):
        configuration = medical.build_configuration()
        configuration.shard_count = 3
        stream = [patient_visit(i) for i in range(5)] + [NEW_DIAGNOSIS]
        with PublishingService(configuration, backend=backend, pool_size=1) as service:
            template = service.executor.backend
            expected = [0] * len(service.shard_logs)
            for changeset in stream:
                for position in template.route_changeset(changeset):
                    expected[position] += 1
            assert [service.update(c) for c in stream] == list(range(1, 7))
            assert service.stats().last_write_lsn == 6
            assert [log.lsn for log in service.shard_logs] == expected
            assert len(service.shard_logs) == (3 if backend == "sharded" else 2)
            if backend == "toy-mirror":
                assert expected == [6, 6]


#: Valid patientDiag rows for several shards, then a short patientDrug row.
REJECTED = ChangeSet.build(
    inserts={
        "patientDiag": [(f"rejected{i}", "flu") for i in range(8)],
        "patientDrug": [("rejected0", "tamiflu")],
    }
)


def table_rows(backend):
    return {name: multiset(backend.rows(name)) for name in backend.table_names}


class TestARejectedUpdateWritesNothing:
    """``update()`` checks the whole change set before any unit is written
    or logged: a rejected one stores nothing and moves no log."""

    def test_a_durable_sharded_service_before_and_after_a_restart(self, tmp_path):
        def sharded():
            configuration = medical.build_configuration()
            configuration.backend = "sharded"
            configuration.shard_count = 4
            return configuration

        options = dict(pool_size=1, log_dir=str(tmp_path / "log"), log_fsync="off")
        with PublishingService(sharded(), **options) as service:
            before = table_rows(service.executor.backend)
            with pytest.raises(EvaluationError):
                service.update(REJECTED)
            assert [log.lsn for log in service.shard_logs] == [0, 0, 0, 0]
            assert service.stats().last_write_lsn == 0
            assert table_rows(service.executor.backend) == before
        with PublishingService(sharded(), **options) as restarted:
            assert [log.lsn for log in restarted.shard_logs] == [0, 0, 0, 0]
            assert restarted.stats().last_write_lsn == 0
            assert table_rows(restarted.executor.backend) == before

    def test_a_one_unit_memory_service_keeps_template_and_clones_equal(self):
        configuration = medical.build_configuration()
        with PublishingService(configuration, backend="memory", pool_size=1) as service:
            template = service.executor.backend
            before = table_rows(template)
            with pytest.raises(EvaluationError):
                service.update(REJECTED)
            assert service.mutation_log.lsn == 0
            assert table_rows(template) == before
            with service.pool.connection() as pooled:
                assert table_rows(pooled) == before
            fresh = template.clone()
            assert table_rows(fresh) == before
            fresh.close()


class TestOneServePath:
    """The service serves every deployment on one request path and one
    write path: reading the one-unit views (``pool``, ``mutation_log``) or
    indexing the per-shard ones outside the two methods that assign and
    report them means a path forks on the deployment's shape again."""

    SERVICE = (
        Path(__file__).resolve().parent.parent / "src" / "repro" / "serve" / "service.py"
    )
    FORK = re.compile(
        r"self\.pool is|self\.shard_pools\[|self\.shard_logs\[|self\.mutation_log\."
    )
    #: The methods that assign the views and report them.
    VIEW_METHODS = ("_adopt_units", "stats")

    def offenders(self, source):
        allowed = set()
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.FunctionDef) and node.name in self.VIEW_METHODS:
                allowed.update(range(node.lineno, node.end_lineno + 1))
        return [
            f"service.py:{number}: {line.strip()}"
            for number, line in enumerate(source.splitlines(), start=1)
            if number not in allowed and self.FORK.search(line)
        ]

    def test_source_scan(self):
        offenders = self.offenders(self.SERVICE.read_text())
        assert not offenders, "\n".join(offenders)

    def test_the_scan_catches_what_it_is_for(self):
        forked = (
            "class S:\n"
            "    def _execute(self):\n"
            "        if self.pool is not None:\n"
            "            return self.mutation_log.lsn\n"
            "        return self.shard_pools[0], self.shard_logs[0]\n"
            "    def _adopt_units(self):\n"
            "        self.pool = self.shard_pools[0]\n"
        )
        assert len(self.offenders(forked)) == 3


class TestOnePlanPerRequest:
    """A request executes one plan, the cost-ranked best reformulation: a
    revived union plan type, union entry point or strategy option fails
    here."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
    RETIRED = (
        "UnionQuery",
        "execute_union",
        "evaluate_union",
        "render_union_sql",
        "UNION_BRANCH",
        "STRATEGY_UNION",
        "note_union_batch",
    )
    SERVING_METHODS = ("__init__", "publish", "publish_many", "explain", "plan_for")

    def test_source_scan(self):
        offenders = []
        paths = sorted(self.SRC.rglob("*.py"))
        assert paths, f"nothing to scan under {self.SRC}"
        for path in paths:
            source = path.read_text()
            offenders.extend(
                f"{path.relative_to(self.SRC)}: {name}"
                for name in self.RETIRED
                if name in source
            )
        assert not offenders, "\n".join(offenders)

    def test_serving_methods_take_no_strategy(self):
        for method in self.SERVING_METHODS:
            parameters = inspect.signature(getattr(PublishingService, method)).parameters
            assert "strategy" not in parameters, method
