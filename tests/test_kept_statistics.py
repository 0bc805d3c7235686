"""A statistics refresh re-measures only the tables written since the last.

Every store keeps the :class:`~repro.cost.statistics.TableStatistics` it
last measured per table until a write to that table drops it.  What must
hold:

* a refresh after no write measures nothing (no ``COUNT`` or ``ANALYZE``
  on SQLite, no ``profile_rows`` on memory), and after a write to one
  table measures that table only;
* **exactness**: along a seeded random history of ``insert_many``,
  ``delete_many``, ``apply``, ``clear_table`` and ``create_table``, the
  catalog after every step equals a sweep of every table over the same
  rows, every field (``fragment_rows`` too), and on SQLite
  ``sqlite_stat1`` equals what a full ``ANALYZE`` writes — on memory,
  SQLite ``:memory:``, a file shared with a second connection, 3 shards
  across a rebalance, and 2 replicas across a repair.  The durable
  restart case lives in ``tests/test_durability.py``.
"""

import random
import sqlite3
import sys
import threading

import pytest

from repro.cost import StatisticsCatalog
from repro.logical.atoms import RelationalAtom
from repro.logical.queries import ConjunctiveQuery
from repro.logical.terms import Variable
from repro.replica import ChangeSet, Rebalancer, ReplicaRepairer, ReplicatedBackend
from repro.serve import PublishingService
from repro.shard import ShardedBackend
from repro.storage.backends import MemoryBackend, SQLiteBackend, StorageBackend
from repro.storage.backends import base as backends_base
from repro.workloads import xmark

COLUMNS = {"r": ("a", "b"), "s": ("c",), "t": ("k", "v")}


def load(backend):
    for name, columns in COLUMNS.items():
        backend.create_table(name, len(columns), columns)
    backend.insert_many("r", [(n % 3, n) for n in range(12)])
    backend.insert_many("s", [(n % 5,) for n in range(7)])
    backend.insert_many("t", [(n, n % 2) for n in range(4)])
    return backend


def measuring(statements):
    """The statements of *statements* that measure a table."""
    return [sql for sql in statements if sql.startswith("ANALYZE") or "COUNT(" in sql]


def sqlite_stat1(connection):
    try:
        return sorted(connection.execute("SELECT tbl, idx, stat FROM sqlite_stat1"))
    except sqlite3.OperationalError:  # nothing analyzed yet
        return []


def fully_analyzed(backend):
    """``sqlite_stat1`` as one ``ANALYZE`` of a copy of *backend* writes it."""
    copy = sqlite3.connect(":memory:")
    try:
        backend._connection.backup(copy)
        copy.execute("ANALYZE")
        return sqlite_stat1(copy)
    finally:
        copy.close()


def sqlite_leaves(backend):
    """The SQLite stores under *backend*, composites unwrapped."""
    if isinstance(backend, SQLiteBackend):
        return [backend]
    parts = getattr(backend, "replicas", None) or getattr(backend, "_children", ())
    return [leaf for part in parts if not part.closed for leaf in sqlite_leaves(part)]


def index_join_columns(backend):
    """Give ``sqlite_stat1`` index rows as well as table rows."""
    a, b, c = Variable("a"), Variable("b"), Variable("c")
    join = ConjunctiveQuery(
        "join", (a, c), (RelationalAtom("r", (a, b)), RelationalAtom("s", (a,)),
                         RelationalAtom("t", (b, c)))
    )
    for leaf in sqlite_leaves(backend):
        leaf.ensure_indexes(join)


class History:
    """Seeded random writes over the tables of a store."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.arities = {name: len(columns) for name, columns in COLUMNS.items()}

    def rows(self, name, count):
        return [
            tuple(self.rng.randrange(6) for _ in range(self.arities[name]))
            for _ in range(count)
        ]

    def some_stored(self, backend, name):
        stored = list(backend.rows(name))
        picked = self.rng.sample(stored, min(len(stored), self.rng.randint(1, 3)))
        return picked + self.rows(name, 1)  # one that may be absent

    def step(self, backend, writer=None):
        """One write through *writer* (default *backend*); tables are
        created through *backend*."""
        writer = writer or backend
        name = self.rng.choice(sorted(self.arities))
        operation = self.rng.choice(
            ["insert_many", "insert_many", "delete_many", "apply", "apply",
             "clear_table", "create_table"]
        )
        if operation == "insert_many":
            writer.insert_many(name, self.rows(name, self.rng.randint(1, 4)))
        elif operation == "delete_many":
            writer.delete_many(name, self.some_stored(backend, name))
        elif operation == "apply":
            other = self.rng.choice(sorted(self.arities))
            writer.apply(ChangeSet.build(
                deletes={name: self.some_stored(backend, name)},
                inserts={other: self.rows(other, self.rng.randint(1, 3))},
            ))
        elif operation == "clear_table":
            writer.clear_table(name)
        else:
            name = f"u{len(self.arities)}"
            backend.create_table(name, 1)
            self.arities[name] = 1


def assert_exact(backend, full_sweep):
    """The refreshed catalog is a full sweep's, ``sqlite_stat1`` a full ANALYZE's."""
    refreshed = backend.refresh_statistics()
    assert refreshed.tables == full_sweep(backend).tables
    for leaf in sqlite_leaves(backend):
        assert sqlite_stat1(leaf._connection) == fully_analyzed(leaf)
    return refreshed


# ----------------------------------------------------------------------
# What a refresh measures
# ----------------------------------------------------------------------
class TestARefreshMeasuresOnlyWrittenTables:
    def test_sqlite_counts_and_analyzes_only_the_written_table(self):
        backend = load(SQLiteBackend())
        statements = []
        backend._connection.set_trace_callback(statements.append)
        first = backend.refresh_statistics()
        # The first refresh sweeps every table.
        assert {'ANALYZE "r"', 'ANALYZE "s"', 'ANALYZE "t"'} <= set(measuring(statements))
        del statements[:]
        assert backend.refresh_statistics().tables == first.tables
        assert measuring(statements) == []
        backend.insert_many("s", [(9,)])
        del statements[:]
        refreshed = backend.refresh_statistics()
        measured = measuring(statements)
        assert 'ANALYZE "s"' in measured
        assert all('"s"' in sql for sql in measured)
        assert refreshed.table("s").row_count == 8.0
        assert refreshed.table("r") is first.table("r")
        backend.close()

    def test_memory_profiles_only_the_written_table(self, monkeypatch):
        backend = load(MemoryBackend())
        profiled = []
        profile = backends_base.profile_rows

        def spy(name, rows):
            profiled.append(name)
            return profile(name, rows)

        monkeypatch.setattr(backends_base, "profile_rows", spy)
        backend.refresh_statistics()
        assert sorted(profiled) == ["r", "s", "t"]
        del profiled[:]
        backend.refresh_statistics()
        assert profiled == []
        backend.delete_many("t", [(0, 0)])
        backend.refresh_statistics()
        assert profiled == ["t"]

    def test_memory_backends_sharing_a_database_see_each_others_writes(
        self, full_sweep
    ):
        first = load(MemoryBackend())
        second = MemoryBackend(first.database)
        first.refresh_statistics()
        second.insert_many("r", [(7, 7)])
        assert first.refresh_statistics().tables == full_sweep(first).tables
        assert first.statistics_catalog.row_count("r") == 13.0

    @pytest.mark.parametrize("engine", [MemoryBackend, SQLiteBackend])
    def test_a_write_during_a_measurement_is_not_kept_stale(
        self, engine, monkeypatch, full_sweep
    ):
        backend = load(engine())
        measure = engine._measure_statistics
        overlapped = []

        def measure_then_write(self, name):
            statistics = measure(self, name)
            if name == "s" and not overlapped:
                overlapped.append(name)  # a write lands as the count returns
                self.insert_many("s", [(8,)])
            return statistics

        monkeypatch.setattr(engine, "_measure_statistics", measure_then_write)
        assert backend.refresh_statistics().row_count("s") == 7.0
        assert overlapped == ["s"]
        assert backend.refresh_statistics().tables == full_sweep(backend).tables
        assert backend.statistics_catalog.row_count("s") == 8.0

    @pytest.mark.parametrize("engine", ["memory", "sqlite"])
    def test_refreshes_racing_writers_keep_nothing_stale(self, engine):
        """Writers taking turns (as the service's write gate has them) and
        two refreshing threads that never wait for them, switching every
        microsecond.  Whenever the writers pause, the catalog is the one
        the rows give: a measurement a write overlapped was not kept."""
        backend = load(
            MemoryBackend() if engine == "memory"
            else SQLiteBackend(check_same_thread=False)
        )
        rounds, turn, stop = 40, threading.Lock(), threading.Event()
        settled = threading.Barrier(len(COLUMNS) + 1, timeout=60)
        failures, stale = [], []

        def write(name, seed):
            rng = random.Random(seed)
            arity = len(COLUMNS[name])
            try:
                for _ in range(rounds):
                    for _ in range(4):
                        rows = [tuple(rng.randrange(9) for _ in range(arity))]
                        with turn:
                            backend.insert_many(name, rows + rows)
                        with turn:
                            backend.delete_many(name, rows)
                    settled.wait()  # this round's writes are done
                    settled.wait()  # and checked
            except Exception as error:  # reported below
                failures.append(error)

        def refresh():
            try:
                while not stop.is_set():
                    backend.refresh_statistics()
            except Exception as error:
                failures.append(error)

        threads = [
            threading.Thread(target=write, args=(name, seed))
            for seed, name in enumerate(COLUMNS)
        ] + [threading.Thread(target=refresh) for _ in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for round_ in range(rounds):
                settled.wait()
                rows = {name: backend.rows(name) for name in COLUMNS}
                if backend.collect_statistics().tables != (
                    StatisticsCatalog.from_rows(rows).tables
                ):
                    stale.append(round_)
                settled.wait()
        finally:
            stop.set()
            sys.setswitchinterval(interval)
            for thread in threads:
                thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert stale == []
        backend.close()

    def test_a_clone_keeps_its_sources_measurements(self, monkeypatch):
        for backend in (load(MemoryBackend()), load(SQLiteBackend())):
            backend.refresh_statistics()
            clone = backend.clone()
            measured = []
            monkeypatch.setattr(
                type(clone), "_measure_statistics",
                lambda self, name: measured.append(name),
            )
            assert clone.collect_statistics().tables == (
                backend.statistics_catalog.tables
            )
            assert measured == []
            monkeypatch.undo()
            clone.close()
            backend.close()

    def test_a_refresh_without_writes_keeps_the_catalog_and_attaches_it(
        self, monkeypatch
    ):
        """``refresh_if_misestimated`` refreshes; with nothing written the
        catalog it attaches equals the one before and nothing is measured."""
        configuration = xmark.build_configuration(
            xmark.XMarkParameters(items_per_region=4, people=8, closed_auctions=12)
        )
        with PublishingService(configuration, pool_size=1) as service:
            query = xmark.query_item_names()
            for _ in range(3):
                service.publish(query)
            before = service.system.cost_model.catalog
            measured = []
            for engine in (StorageBackend, SQLiteBackend):
                measure = engine._measure_statistics
                monkeypatch.setattr(
                    engine, "_measure_statistics",
                    lambda self, name, measure=measure: (
                        measured.append(name) or measure(self, name)
                    ),
                )
            worst = service.cost_feedback.worst_q_error(min_samples=3)
            assert service.refresh_if_misestimated(q_threshold=worst, min_samples=3)
            assert service.stats().statistics_refreshes == 1
            after = service.system.cost_model.catalog
            assert after is not before
            assert after.tables == before.tables
            assert after.access_weights == before.access_weights
            assert measured == []


# ----------------------------------------------------------------------
# Exactness along random histories
# ----------------------------------------------------------------------
SEEDS = (3, 17)
STEPS = 40


class TestCatalogEqualsAFullSweep:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("engine", ["memory", "sqlite"])
    def test_plain_store(self, engine, seed, full_sweep):
        backend = load(MemoryBackend() if engine == "memory" else SQLiteBackend())
        index_join_columns(backend)
        history = History(seed)
        assert_exact(backend, full_sweep)
        for _ in range(STEPS):
            history.step(backend)
            assert_exact(backend, full_sweep)
        backend.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_file_shared_with_a_second_connection(self, tmp_path, seed, full_sweep):
        backend = load(SQLiteBackend(path=str(tmp_path / "store.db")))
        other = backend.clone()
        index_join_columns(backend)
        history = History(seed)
        assert_exact(backend, full_sweep)
        writers = []
        for _ in range(STEPS):
            writer = history.rng.choice([backend, other])
            writers.append(writer)
            history.step(backend, writer)
            # The other connection's tables are the template's.
            other._adopt_existing_tables()
            assert_exact(backend, full_sweep)
            assert other.collect_statistics().tables == full_sweep(other).tables
        assert other in writers and backend in writers
        other.close()
        backend.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_three_shards_across_a_rebalance(self, seed, full_sweep):
        backend = load(ShardedBackend(
            shards=3, children=("memory", "sqlite", "memory"),
            partition_keys={"r": "a"},
        ))
        index_join_columns(backend)
        history = History(seed)
        first = assert_exact(backend, full_sweep)
        assert sum(first.table("r").fragment_rows) == 12.0
        for step in range(STEPS):
            if step == STEPS // 2:
                Rebalancer(backend, children=["sqlite", "memory"]).run()
                index_join_columns(backend)
            history.step(backend)
            refreshed = assert_exact(backend, full_sweep)
            assert len(refreshed.table("r").fragment_rows) == backend.shard_count
        assert backend.shard_count == 2
        backend.close()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_replicas_across_a_repair(self, seed, full_sweep):
        backend = load(ReplicatedBackend(replicas=2, child="sqlite"))
        index_join_columns(backend)
        history = History(seed)
        assert_exact(backend, full_sweep)
        for step in range(STEPS):
            if step == STEPS // 3:
                backend.replicas[1].close()
            if step == 2 * STEPS // 3:
                ReplicaRepairer(backend).repair(1)
            history.step(backend)
            assert_exact(backend, full_sweep)
            for replica in backend.replicas:
                if not replica.closed:
                    assert replica.collect_statistics().tables == (
                        full_sweep(replica).tables
                    )
        assert not any(replica.closed for replica in backend.replicas)
        backend.close()
