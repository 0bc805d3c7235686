"""The storage-backend subsystem: protocol, SQLite executor, equivalence.

The cross-backend suite is the end-to-end validation of the SQL generation:
for every reformulation produced by the medical, star and XMark example
configurations, the SQLite backend must return exactly the row multiset the
in-memory evaluator returns, and every minimal plan must answer the client
query on every engine.
"""

import ast
import itertools
import re
import threading
from pathlib import Path

import pytest

from repro.core import MarsConfiguration, MarsExecutor, MarsSystem
from repro.errors import EvaluationError, SchemaError
from repro.engine.backchase import BackchaseConfig
from repro.engine.cb import CBConfig
from repro.logical.atoms import EqualityAtom, InequalityAtom, RelationalAtom
from repro.logical.queries import ConjunctiveQuery
from repro.logical.terms import Constant, Variable
from repro.replica import ChangeSet, TableChange
from repro.serve import ConnectionPool, PublishingService
from repro.storage.backends import sqlite as sqlite_module
from repro.storage.backends import (
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    available_backends,
    create_backend,
)
from repro.workloads import medical, star, xmark
from repro.workloads.star import StarParameters
from repro.xbind import PathAtom, XBindQuery

BACKEND_NAMES = ("memory", "sqlite")
#: Engines that must satisfy the full StorageBackend protocol; "sharded"
#: and "replicated" run here with their defaults (2 memory children,
#: everything broadcast; memory replicas).
PROTOCOL_BACKENDS = BACKEND_NAMES + ("sharded", "replicated")


def multiset(rows):
    return sorted(map(repr, rows))


# ----------------------------------------------------------------------
# Protocol-level behaviour, identical across implementations
# ----------------------------------------------------------------------
@pytest.fixture(params=PROTOCOL_BACKENDS)
def backend(request):
    instance = create_backend(request.param)
    yield instance
    instance.close()


class TestBackendProtocol:
    def test_create_insert_rows(self, backend):
        backend.create_table("r", 2, ("a", "b"))
        backend.insert_many("r", [(1, "x"), (2, "y"), (1, "x")])
        assert backend.has_table("r")
        assert "r" in backend
        assert tuple(backend.rows("r")) == ((1, "x"), (2, "y"), (1, "x"))
        assert backend.cardinality("r") == 3
        assert backend.cardinalities() == {"r": 3}
        assert "r" in backend.table_names

    def test_clear_table(self, backend):
        backend.create_table("r", 1)
        backend.insert_many("r", [(1,), (2,)])
        backend.clear_table("r")
        assert backend.has_table("r")
        assert backend.cardinality("r") == 0

    def test_duplicate_create_raises(self, backend):
        backend.create_table("r", 1)
        with pytest.raises(SchemaError):
            backend.create_table("r", 1)

    def test_arity_mismatch_raises(self, backend):
        backend.create_table("r", 2)
        with pytest.raises(EvaluationError):
            backend.insert_many("r", [(1, 2, 3)])

    @pytest.mark.parametrize(
        "bad",
        [{"b": [(3,)]}, {"b": [(3, "z")], "missing": [(4,)]}],
        ids=["short-row-in-the-second-table", "unknown-third-table"],
    )
    def test_a_rejected_change_set_writes_nothing(self, backend, bad):
        """The table and arity check covers the whole change set before
        anything is written: no table changes, and every replica stays
        equal and live."""
        backend.create_table("a", 2)
        backend.create_table("b", 2)
        backend.insert_many("a", [(1, "x")])
        changeset = ChangeSet.build(
            inserts={"a": [(2, "y")], **bad}, deletes={"a": [(1, "x")]}
        )
        with pytest.raises(EvaluationError):
            backend.apply(changeset)
        assert tuple(backend.rows("a")) == ((1, "x"),)
        assert tuple(backend.rows("b")) == ()
        for replica in getattr(backend, "replicas", ()):
            assert not replica.closed
            assert tuple(replica.rows("a")) == ((1, "x"),)
            assert tuple(replica.rows("b")) == ()

    def test_changes_to_one_table_apply_in_the_order_listed(self, backend):
        backend.create_table("r", 1)
        backend.apply(
            ChangeSet((TableChange("r", inserts=[(1,)]), TableChange("r", deletes=[(1,)])))
        )
        assert tuple(backend.rows("r")) == ()

    def test_apply_returns_the_rows_each_table_lost(self, backend):
        backend.create_table("a", 2)
        backend.create_table("b", 1)
        backend.insert_many("a", [(1, "x"), (1, "x"), (2, "y")])
        removed = backend.apply(
            ChangeSet.build(
                inserts={"b": [(7,)]},
                deletes={"a": [(1, "x"), (1, "x"), (1, "x"), (9, "z")]},
            )
        )
        assert removed["a"] == 2 and removed["b"] == 0
        assert tuple(backend.rows("a")) == ((2, "y"),)
        assert backend.delete_many("b", [(7,), (7,)]) == 1

    def test_unknown_table_raises(self, backend):
        with pytest.raises(EvaluationError):
            backend.rows("missing")
        assert backend.cardinality("missing") == 0

    def test_execute_join_with_constants(self, backend):
        backend.create_table("r", 2, ("a", "b"))
        backend.create_table("s", 2, ("b", "c"))
        backend.insert_many("r", [(1, 10), (2, 20), (3, 10)])
        backend.insert_many("s", [(10, "ten"), (20, "twenty")])
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = ConjunctiveQuery(
            "q",
            (x, z),
            (RelationalAtom("r", (x, y)), RelationalAtom("s", (y, z))),
        )
        assert multiset(backend.execute(query)) == multiset(
            [(1, "ten"), (3, "ten"), (2, "twenty")]
        )
        selective = ConjunctiveQuery(
            "q1",
            (x,),
            (RelationalAtom("r", (x, Constant(10))),),
        )
        assert multiset(backend.execute(selective)) == multiset([(1,), (3,)])

    def test_execute_distinct_and_bag(self, backend):
        backend.create_table("r", 1)
        backend.insert_many("r", [(1,), (1,), (2,)])
        x = Variable("x")
        query = ConjunctiveQuery("q", (x,), (RelationalAtom("r", (x,)),))
        assert multiset(backend.execute(query)) == multiset([(1,), (2,)])
        assert multiset(backend.execute(query, distinct=False)) == multiset(
            [(1,), (1,), (2,)]
        )

    def test_none_join_keys_and_inequalities_match_like_values(self, backend):
        """``None`` is a value like any other: it joins with ``None`` and
        differs from every non-``None`` value, on every engine."""
        backend.create_table("r", 2, ("a", "b"))
        backend.create_table("s", 2, ("b", "c"))
        backend.insert_many("r", [("k1", None), ("k2", "v")])
        backend.insert_many("s", [(None, "n"), ("v", "w")])
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        join = ConjunctiveQuery(
            "q", (x, z), (RelationalAtom("r", (x, y)), RelationalAtom("s", (y, z)))
        )
        assert multiset(backend.execute(join)) == multiset(
            [("k1", "n"), ("k2", "w")]
        )
        selection = ConjunctiveQuery(
            "q_null", (x,), (RelationalAtom("r", (x, Constant(None))),)
        )
        assert backend.execute(selection) == [("k1",)]
        differs = ConjunctiveQuery(
            "q_ne",
            (x, y),
            (RelationalAtom("r", (x, y)), InequalityAtom(y, Constant("v"))),
        )
        assert backend.execute(differs) == [("k1", None)]

    def test_execute_unknown_relation_raises(self, backend):
        x = Variable("x")
        query = ConjunctiveQuery("q", (x,), (RelationalAtom("nope", (x,)),))
        with pytest.raises(EvaluationError):
            backend.execute(query)

    def test_explain_mentions_relations(self, backend, explain):
        backend.create_table("r", 2, ("a", "b"))
        backend.insert_many("r", [(1, 2)])
        x, y = Variable("x"), Variable("y")
        query = ConjunctiveQuery("q", (x,), (RelationalAtom("r", (x, y)),))
        assert "scan r" in explain(backend, query)


class TestOneUnitRouting:
    """A backend that is its own storage unit routes through the base
    defaults: every plan to unit 0, every change set whole."""

    def test_route_plan_names_unit_zero_single(self):
        x = Variable("x")
        plan = ConjunctiveQuery("q", (x,), (RelationalAtom("r", (x,)),))
        with MemoryBackend() as backend:
            route = backend.route_plan(plan)
        ((routed, decision),) = route.decisions
        assert routed is plan
        assert decision.mode == "single"
        assert route.needed_shards == (0,)

    def test_execute_routed_reads_the_checked_out_unit(self):
        x = Variable("x")
        plan = ConjunctiveQuery("q", (x,), (RelationalAtom("r", (x,)),))
        with MemoryBackend() as template:
            template.create_table("r", 1)
            template.insert_many("r", [(1,)])
            clone = template.clone()
            clone.insert_many("r", [(2,)])
            route = template.route_plan(plan)
            assert multiset(template.execute_routed(route, plan, True, {0: clone})) == (
                multiset([(1,), (2,)])
            )
            assert template.execute_routed(route, plan) == [(1,)]
            clone.close()

    def test_route_changeset_keeps_the_change_set_whole(self):
        changeset = ChangeSet.build(inserts={"r": [(1,)]})
        with MemoryBackend() as backend:
            assert backend.route_changeset(changeset) == {0: changeset}


class TestBackendFactory:
    def test_registry_names(self):
        assert set(PROTOCOL_BACKENDS) <= set(available_backends())

    def test_default_is_memory(self, monkeypatch):
        monkeypatch.delenv("MARS_BACKEND", raising=False)
        assert isinstance(create_backend(None), MemoryBackend)

    def test_default_honours_environment(self, monkeypatch):
        monkeypatch.setenv("MARS_BACKEND", "sqlite")
        assert isinstance(create_backend(None), SQLiteBackend)
        assert MarsConfiguration("env").backend == "sqlite"

    def test_instance_passthrough(self):
        instance = MemoryBackend()
        assert create_backend(instance) is instance

    def test_class_spec(self):
        assert isinstance(create_backend(SQLiteBackend), SQLiteBackend)

    def test_unknown_name_raises(self):
        with pytest.raises(EvaluationError):
            create_backend("oracle9i")

    def test_configuration_hook(self, monkeypatch):
        monkeypatch.delenv("MARS_BACKEND", raising=False)
        configuration = MarsConfiguration("conf")
        assert isinstance(configuration.create_backend(), MemoryBackend)
        configuration.backend = "sqlite"
        assert isinstance(configuration.create_backend(), SQLiteBackend)

    def test_system_executor_hook(self):
        configuration = medical.build_configuration()
        system = MarsSystem(configuration)
        executor = system.executor(backend="sqlite")
        assert isinstance(executor.backend, SQLiteBackend)
        result = system.reformulate(medical.client_query())
        assert executor.execute_reformulation(result.best)

    def test_close_spares_injected_backend(self):
        """executor.close() must not close a backend instance it was handed."""
        configuration = medical.build_configuration()
        system = MarsSystem(configuration)
        result = system.reformulate(medical.client_query())
        shared = SQLiteBackend()
        first = MarsExecutor(configuration, backend=shared)
        first.close()
        # the shared backend is still usable by others
        second = MarsExecutor(configuration, backend=shared)
        assert second.execute_reformulation(result.best)
        shared.close()

    def test_close_owned_backend(self):
        configuration = medical.build_configuration()
        system = MarsSystem(configuration)
        result = system.reformulate(medical.client_query())
        executor = MarsExecutor(configuration, backend="sqlite")
        executor.close()
        with pytest.raises(EvaluationError):
            executor.execute_reformulation(result.best)


# ----------------------------------------------------------------------
# SQLite-specific behaviour
# ----------------------------------------------------------------------
class TestSQLiteBackend:
    def test_indexes_created_on_join_columns(self):
        backend = SQLiteBackend()
        backend.create_table("r", 2, ("a", "b"))
        backend.create_table("s", 2, ("b", "c"))
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = ConjunctiveQuery(
            "q",
            (x, z),
            (RelationalAtom("r", (x, y)), RelationalAtom("s", (y, z))),
        )
        statements = []
        backend._connection.set_trace_callback(statements.append)
        created = backend.ensure_indexes(query)
        assert "ix_r__b" in created and "ix_s__b" in created
        # Each table that gained an index is analyzed once, in the same call.
        analyzed = [sql for sql in statements if sql.startswith("ANALYZE")]
        assert sorted(analyzed) == ['ANALYZE "r"', 'ANALYZE "s"']
        # idempotent on the second call, which must not analyze on the
        # request path either
        del statements[:]
        assert backend.ensure_indexes(query) == []
        assert not [sql for sql in statements if sql.startswith("ANALYZE")]

    def test_an_index_another_connection_built_is_not_analyzed_again(self, tmp_path):
        """A second clone of a file store executing the join the first one
        indexed creates and analyzes nothing, so the template's next
        refresh has no commit to re-measure for."""
        template = SQLiteBackend(path=str(tmp_path / "two.db"), check_same_thread=False)
        template.create_table("r", 2, ("a", "b"))
        template.create_table("s", 2, ("b", "c"))
        template.insert_many("r", [(i, i % 5) for i in range(20)])
        template.insert_many("s", [(i, f"v{i}") for i in range(5)])
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        join = ConjunctiveQuery(
            "q", (x, z), (RelationalAtom("r", (x, y)), RelationalAtom("s", (y, z)))
        )
        first, second = template.clone(), template.clone()
        expected = multiset(first.execute(join))
        assert first.ensure_indexes(join) == []
        template.refresh_statistics()
        statements = []
        for backend in (template, second):
            backend._connection.set_trace_callback(statements.append)
        assert multiset(second.execute(join)) == expected
        template.refresh_statistics()
        assert [
            sql for sql in statements if sql.startswith("ANALYZE") or "COUNT" in sql
        ] == []
        for backend in (first, second, template):
            backend.close()

    def test_explain_query_plan(self, explain):
        backend = SQLiteBackend()
        backend.create_table("r", 2, ("a", "b"))
        # Enough distinct keys that the analyzed index beats a scan (on a
        # one-row table SQLite rightly scans).
        backend.insert_many("r", [(a, a + 1) for a in range(50)])
        x, y = Variable("x"), Variable("y")
        query = ConjunctiveQuery(
            "q", (y,), (RelationalAtom("r", (Constant(1), y)),)
        )
        plan = explain(backend, query)
        # The statement node carries SQLite's own EXPLAIN QUERY PLAN rows.
        (engine_plan,) = re.findall(
            r"^ *statement q: .*engine_plan=(\[.*?\])", plan, re.M
        )
        assert "USING INDEX ix_r__a" in engine_plan

    def test_compile_query_is_parameterized(self):
        backend = SQLiteBackend()
        backend.create_table("r", 2, ("a", "b"))
        x = Variable("x")
        query = ConjunctiveQuery(
            "q", (x,), (RelationalAtom("r", (x, Constant("it's"))),)
        )
        statement = backend.compile_query(query)
        assert "?" in statement.sql
        assert statement.params == ("it's",)
        assert "it's" not in statement.sql

    def test_reopen_existing_database_file(self, tmp_path):
        """A second executor over the same file rebuilds instead of crashing."""
        path = str(tmp_path / "mars.db")
        configuration = medical.build_configuration()
        system = MarsSystem(configuration)
        result = system.reformulate(medical.client_query())
        first = MarsExecutor(configuration, backend=SQLiteBackend(path=path))
        rows_first = first.execute_reformulation(result.best)
        first.backend.close()
        reopened = SQLiteBackend(path=path)
        assert reopened.has_table("patientDiag")
        second = MarsExecutor(configuration, backend=reopened)
        rows_second = second.execute_reformulation(result.best)
        assert multiset(rows_first) == multiset(rows_second)
        # base tables were cleared on rebuild, not appended to
        assert second.backend.cardinality("patientDiag") == len(
            medical.DEFAULT_PATIENTS
        )
        second.close()

    def test_quoted_identifiers(self):
        backend = SQLiteBackend()
        backend.create_table("tag__catalog_xml", 2, ("node", "tag"))
        backend.insert_many("tag__catalog_xml", [("n1", "drug")])
        x = Variable("x")
        query = ConjunctiveQuery(
            "q",
            (x,),
            (RelationalAtom("tag__catalog_xml", (x, Constant("drug"))),),
        )
        assert backend.execute(query) == [("n1",)]


def xmark_at_scale_8():
    return xmark.build_configuration(
        xmark.XMarkParameters(items_per_region=64, people=120, closed_auctions=160)
    )


def index_statistics_gaps(backend):
    """The ``ix_*`` indexes of *backend* that ``sqlite_stat1`` lacks."""
    connection = backend._connection
    indexes = {
        name
        for (name,) in connection.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index' "
            "AND name LIKE 'ix_%'"
        )
    }
    analyzed = {
        name
        for (name,) in connection.execute(
            "SELECT idx FROM sqlite_stat1 WHERE idx IS NOT NULL"
        )
    }
    assert indexes, "no plan built an index"
    return indexes - analyzed


class TestSQLiteAnalyzesItsIndexes:
    """Every lazily built index comes with its ``sqlite_stat1`` row.

    Without them SQLite prices each index lookup with its default guess and
    opens ``RegionItems`` (an 11-atom GReX chain) with ``tag = 'item'``,
    rebuilding the chain from ``site`` down for every item: work that grows
    with the square of the document.
    """

    @pytest.fixture(scope="class")
    def xmark_plans(self):
        configuration = xmark_at_scale_8()
        system = MarsSystem(configuration)
        plans = [system.reformulate(query).best for query in xmark.query_suite()]
        return configuration, plans

    def test_fresh_backend_analyzes_every_index(self, xmark_plans):
        configuration, plans = xmark_plans
        executor = MarsExecutor(configuration, backend="sqlite")
        try:
            for plan in plans:
                executor.execute_reformulation(plan)
            assert index_statistics_gaps(executor.backend) == set()
        finally:
            executor.close()

    def test_every_pooled_clone_analyzes_its_indexes(self, xmark_plans):
        """The serving path: clones taken before the first query build
        their indexes on their own first execute."""
        configuration, plans = xmark_plans
        executor = MarsExecutor(configuration, backend="sqlite")
        pool = ConnectionPool(executor.backend, size=2)
        clones = [pool.acquire(), pool.acquire()]
        try:
            for clone in clones:
                for plan in plans:
                    clone.execute(plan)
                assert index_statistics_gaps(clone) == set()
        finally:
            for clone in clones:
                pool.release(clone)
            pool.close()
            executor.close()

    def test_region_items_opens_with_a_single_scan(self):
        """The profiled engine plan scans the root once, then only probes
        indexes down the chain."""
        configuration = xmark_at_scale_8()
        with PublishingService(configuration, backend="sqlite", pool_size=2) as service:
            profile = service.explain(xmark.query_region_items(), analyze=True)
        (statement,) = [
            node for node in profile.operators() if node.kind == "statement"
        ]
        scans = [
            step
            for step in statement.attributes["engine_plan"]
            if step.startswith("SCAN")
        ]
        # SQLite before 3.36 prints "SCAN TABLE t0"; the prefix covers both
        # and leaves out "USE TEMP B-TREE FOR DISTINCT".
        assert len(scans) == 1, statement.attributes["engine_plan"]


# ----------------------------------------------------------------------
# One SQLite statement steps at a time per process
# ----------------------------------------------------------------------
#: Seconds a thread gets before the lock counts as never released.
LOCK_TIMEOUT = 30


def scan_all(relation):
    """``q(x, y) :- relation(x, y)``: no join column, so no index to build."""
    x, y = Variable("x"), Variable("y")
    return ConjunctiveQuery("q", (x, y), (RelationalAtom(relation, (x, y)),))


def run_in_threads(*thunks):
    """Start *thunks* together behind a barrier; fail if one never ends."""
    barrier = threading.Barrier(len(thunks))
    errors = []

    def body(thunk):
        barrier.wait()
        try:
            thunk()
        except Exception as error:  # surfaced below, on the test's thread
            errors.append(error)

    threads = [
        threading.Thread(target=body, args=(thunk,), daemon=True) for thunk in thunks
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(LOCK_TIMEOUT)
    assert not any(thread.is_alive() for thread in threads), "a thread never finished"
    assert errors == []


class TestSQLiteStatementsStepOneAtATime:
    """``sqlite3`` hands the GIL over once per stepped row; two threads
    stepping statements together paid a cross-core handoff on every row.
    Each statement now steps from its first row to its last while no other
    statement in the process does."""

    STATEMENTS = 5

    def test_two_threads_do_not_interleave_statements(self):
        template = SQLiteBackend()
        template.create_table("r", 2, ("a", "b"))
        template.insert_many("r", [(a, -a) for a in range(20_000)])
        clones = [template.clone(), template.clone()]
        steppers = []
        for clone in clones:
            clone._connection.set_progress_handler(
                lambda: steppers.append(threading.get_ident()), 1000
            )

        def reads(clone):
            def thunk():
                for _ in range(self.STATEMENTS):
                    assert len(clone.execute(scan_all("r"))) == 20_000

            return thunk

        try:
            run_in_threads(*(reads(clone) for clone in clones))
        finally:
            for clone in clones:
                clone.close()
            template.close()
        runs = [ident for ident, _ in itertools.groupby(steppers)]
        assert len(set(runs)) == 2
        # One run per statement at most: no statement stepped while the
        # other thread's was between its first and last row.
        assert len(runs) <= 2 * self.STATEMENTS, len(runs)

    def test_a_rejected_statement_releases_the_lock(self):
        template = SQLiteBackend()
        template.create_table("r", 2, ("a", "b"))
        template.insert_many("r", [(1, 2)])
        broken, healthy = template.clone(), template.clone()
        # Dropped behind the backend's back: SQLite itself rejects the read.
        broken._connection.execute('DROP TABLE "r"')
        try:
            with pytest.raises(EvaluationError, match="SQLite rejected"):
                broken.execute(scan_all("r"))
            run_in_threads(lambda: healthy.execute(scan_all("r")))
            assert not sqlite_module._STEP_LOCK.locked()
        finally:
            broken.close()
            healthy.close()
            template.close()

    def test_profiled_explain_from_two_threads_releases_the_lock(self):
        """The profiled read (``EXPLAIN QUERY PLAN``, then the statement)
        takes the lock twice in a row, never one inside the other."""
        configuration = medical.build_configuration()
        with PublishingService(
            configuration, backend="sqlite", pool_size=2
        ) as service:
            profiles = []

            def explain():
                profiles.append(
                    service.explain(medical.client_query(), analyze=True)
                )

            run_in_threads(explain, explain)
            assert len(profiles) == 2
            for profile in profiles:
                assert [
                    node.attributes["engine_plan"]
                    for node in profile.operators()
                    if node.kind == "statement"
                ]
            run_in_threads(lambda: service.publish(medical.client_query()))
        assert not sqlite_module._STEP_LOCK.locked()


class TestOneSQLiteFetchPath:
    """Every multi-row read in ``sqlite.py`` goes through ``_fetch``, which
    steps it under the module's one lock: a ``.fetchall(`` / ``.fetchmany(``
    or a loop over ``connection.execute(...)`` anywhere else fails here."""

    SQLITE = (
        Path(__file__).resolve().parent.parent
        / "src" / "repro" / "storage" / "backends" / "sqlite.py"
    )
    HELPER = "_fetch"

    @classmethod
    def reads_outside_helper(cls, source):
        """Lines of multi-row reads that are not inside the helper."""
        tree = ast.parse(source)
        inside = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == cls.HELPER
            for node in ast.walk(function)
        }
        lines = []
        for node in ast.walk(tree):
            if id(node) in inside:
                continue
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("fetchall", "fetchmany")
            ):
                lines.append(node.lineno)
            elif (
                isinstance(node, (ast.For, ast.comprehension))
                and isinstance(node.iter, ast.Call)
                and isinstance(node.iter.func, ast.Attribute)
                and node.iter.func.attr == "execute"
            ):
                lines.append(node.iter.lineno)
        return sorted(lines)

    def test_source_scan(self):
        source = self.SQLITE.read_text()
        assert self.reads_outside_helper(source) == []
        (helper,) = [
            node
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and node.name == self.HELPER
        ]
        assert "with _STEP_LOCK:" in ast.get_source_segment(source, helper)
        # Not an RLock: a nested acquisition deadlocks instead of hiding.
        assert type(sqlite_module._STEP_LOCK) is type(threading.Lock())

    def test_the_scan_catches_what_it_is_for(self):
        source = (
            "def _fetch(connection, sql):\n"
            "    with _STEP_LOCK:\n"
            "        return connection.execute(sql).fetchall()\n"
            "def read(connection):\n"
            "    head = connection.execute('SELECT 1').fetchmany(2)\n"
            "    rows = [r for r in connection.execute('SELECT 2')]\n"
            "    for row in self._connection.execute('SELECT 3'):\n"
            "        pass\n"
            "    return connection.execute('SELECT 4').fetchone()\n"
        )
        assert self.reads_outside_helper(source) == [5, 6, 7]


# ----------------------------------------------------------------------
# Cross-backend equivalence on the paper workloads (end-to-end SQL check)
# ----------------------------------------------------------------------
#: Star NC 3 with cost pruning off: the backchase keeps several minimal
#: plans, so every one of them (not just the best) is executed.
MULTI_PLAN = "star-unpruned"
CB_CONFIGS = {MULTI_PLAN: CBConfig(backchase=BackchaseConfig(prune_by_cost=False))}


def buyer_ids_by_equality():
    """An xmark join written as an explicit ``pid = b`` equality."""
    person, auction = Variable("p"), Variable("a")
    pid, buyer = Variable("pid"), Variable("b")
    return XBindQuery(
        "BuyerIdsByEquality",
        (pid,),
        (
            PathAtom("//person", person, document=xmark.AUCTION_DOCUMENT),
            PathAtom("./@id", pid, source=person),
            PathAtom("//closed_auction", auction, document=xmark.AUCTION_DOCUMENT),
            PathAtom("./buyer/text()", buyer, source=auction),
            EqualityAtom(pid, buyer),
        ),
    )


def equivalence_cases():
    medical_configuration = medical.build_configuration()
    yield "medical", medical_configuration, [
        medical.client_query(),
        medical.drug_usage_query(),
    ]
    star_parameters = StarParameters(corners=3, hub_count=12, corner_size=10)
    yield "star", star.build_configuration(star_parameters, with_instance=True), [
        star.client_query(star_parameters)
    ]
    unpruned_parameters = StarParameters(corners=3, hub_count=10, corner_size=6)
    yield MULTI_PLAN, star.build_configuration(
        unpruned_parameters, with_instance=True
    ), [star.client_query(unpruned_parameters)]
    xmark_configuration = xmark.build_configuration(
        xmark.XMarkParameters(items_per_region=6, people=10, closed_auctions=12)
    )
    yield "xmark", xmark_configuration, xmark.query_suite() + [buyer_ids_by_equality()]


@pytest.mark.parametrize(
    "name,configuration,queries",
    list(equivalence_cases()),
    ids=lambda value: value if isinstance(value, str) else "",
)
class TestCrossBackendEquivalence:
    def test_backends_agree_on_every_reformulation(
        self, name, configuration, queries
    ):
        system = MarsSystem(configuration, cb_config=CB_CONFIGS.get(name))
        memory_executor = MarsExecutor(configuration, backend="memory")
        sqlite_executor = MarsExecutor(configuration, backend="sqlite")
        # the sharded executor picks up the workload's partition-key hints
        # through the configuration (2 shards, one engine of each kind)
        sharded_executor = MarsExecutor(
            configuration,
            backend=configuration.create_backend(
                "sharded", shards=2, children=("memory", "sqlite")
            ),
        )
        others = (sqlite_executor, sharded_executor)
        for query in queries:
            result = system.reformulate(query)
            assert result.found, f"{name}: no reformulation for {query.name}"
            memory_rows = memory_executor.execute_reformulation(result.best)
            for other in others:
                other_rows = other.execute_reformulation(result.best)
                assert multiset(memory_rows) == multiset(other_rows), (
                    f"{name}/{query.name}: backends disagree"
                )
            # Every minimal reformulation must agree as well, not just the best.
            for candidate in result.minimal:
                expected = multiset(
                    memory_executor.execute_reformulation(candidate)
                )
                for other in others:
                    assert expected == multiset(
                        other.execute_reformulation(candidate)
                    ), f"{name}/{query.name}: disagreement on {candidate.name}"
        sharded_executor.backend.close()
        sqlite_executor.close()

    def test_every_minimal_plan_matches_original_answers(
        self, name, configuration, queries
    ):
        """Every minimal reformulation answers the client query, on every
        engine: its rows equal the original query's over the published
        documents (``MarsExecutor.execute_original``)."""
        system = MarsSystem(configuration, cb_config=CB_CONFIGS.get(name))
        executors = [
            MarsExecutor(configuration, backend=engine) for engine in BACKEND_NAMES
        ] + [
            MarsExecutor(configuration, backend=composite)
            for composite in (
                configuration.create_backend(
                    "sharded", shards=2, children=("memory", "sqlite")
                ),
                configuration.create_backend("replicated", replicas=2),
            )
        ]
        try:
            for query in queries:
                result = system.reformulate(query)
                assert result.best in result.minimal
                if name == MULTI_PLAN:
                    assert len(result.minimal) > 1
                for executor in executors:
                    expected = multiset(executor.execute_original(query))
                    for candidate in result.minimal:
                        assert multiset(
                            executor.execute_reformulation(candidate)
                        ) == expected, (
                            f"{name}/{query.name}: {candidate.name} on "
                            f"{executor.backend.backend_name}"
                        )
        finally:
            for executor in executors:
                executor.close()
                if not executor.backend.closed:
                    executor.backend.close()

    def test_statistics_reflect_backend_contents(self, name, configuration, queries):
        executor = MarsExecutor(configuration, backend="sqlite")
        stats = executor.collect_statistics()
        for relation, count in executor.backend.cardinalities().items():
            assert stats.row_count(relation) == float(count)
        executor.close()


# ----------------------------------------------------------------------
# The minimize-override engine cache (MarsSystem.reformulate satellite)
# ----------------------------------------------------------------------
class TestMinimizeOverrideCache:
    def test_override_engine_is_cached(self):
        configuration = medical.build_configuration()
        system = MarsSystem(configuration)
        assert system._override_engines == {}
        first = system.reformulate(medical.client_query(), minimize=False)
        assert first.found and first.initial is not None
        engine = system._override_engines[False]
        assert engine.config.minimize is False
        # the non-minimize config inherits every other flag unchanged
        assert engine.config.chase is system.cb_config.chase
        assert engine.config.backchase is system.cb_config.backchase
        second = system.reformulate(medical.drug_usage_query(), minimize=False)
        assert second.found
        assert system._override_engines[False] is engine

    def test_matching_override_uses_default_engine(self):
        configuration = medical.build_configuration()
        system = MarsSystem(configuration)
        result = system.reformulate(medical.client_query(), minimize=True)
        assert result.found
        assert system._override_engines == {}


# ----------------------------------------------------------------------
# One join kernel (CI source scan)
# ----------------------------------------------------------------------
class TestOneJoinKernel:
    """A conjunction is ordered and probed by ``CompiledConjunction`` only,
    over ``Inst(Q)`` in the chase and over tables in the memory backend: a
    join loop of its own under the backend packages fails here.  The
    reference evaluators tests compare against, ``engine/homomorphism.py``
    and ``xbind/evaluation.py``, live outside these packages."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
    #: The packages holding storage backends.
    BACKEND_PACKAGES = ("storage", "shard", "replica")
    RETIRED = ("_match_atom", "_atom_join_key", "_MISSING")

    @staticmethod
    def hash_probes(source):
        """Lines of loops over a ``.get(...)`` lookup: a per-binding probe."""
        return [
            node.iter.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.For, ast.comprehension))
            and isinstance(node.iter, ast.Call)
            and isinstance(node.iter.func, ast.Attribute)
            and node.iter.func.attr == "get"
        ]

    def test_source_scan(self):
        paths = [
            path
            for package in self.BACKEND_PACKAGES
            for path in sorted((self.SRC / package).rglob("*.py"))
        ]
        assert paths, f"nothing to scan under {self.SRC}"
        for path in paths:
            source = path.read_text()
            for name in self.RETIRED:
                assert name not in source, f"{name} in {path}"
            assert self.hash_probes(source) == [], path
        evaluation = (self.SRC / "storage" / "evaluation.py").read_text()
        assert "CompiledConjunction(" in evaluation
        assert ".extend(source, bindings)" in evaluation

    @staticmethod
    def binding_copies(source):
        """Lines of ``dict(name)`` calls: a copy of a dictionary binding."""
        return [
            node.lineno
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "dict"
            and len(node.args) == 1
            and not node.keywords
            and isinstance(node.args[0], ast.Name)
        ]

    def test_the_kernel_copies_no_binding_per_row(self):
        """A binding is a tuple of slots, extended by concatenation: the
        kernel makes no ``dict(binding)`` copy."""
        kernel = (self.SRC / "engine" / "join_tree.py").read_text()
        assert self.binding_copies(kernel) == []
        assert self.binding_copies(
            "for row in rows:\n    extended = dict(binding)\n"
        ) == [2]
        assert self.binding_copies("h = dict(zip(variables, binding))\n") == []

    def test_the_scan_catches_what_it_is_for(self):
        source = (
            "def probe(index, bindings, key_of):\n"
            "    for binding in bindings:\n"
            "        for row in index.get(key_of(binding), ()):\n"
            "            yield row\n"
            "    return [row for b in bindings for row in index.get(b, ())]\n"
        )
        assert self.hash_probes(source) == [3, 5]
        assert self.hash_probes("for row in rows:\n    pass\n") == []


# ----------------------------------------------------------------------
# One write primitive (CI source scan)
# ----------------------------------------------------------------------
class TestOneWritePrimitive:
    """An engine changes rows only through ``apply(changeset)``:
    ``insert``, ``insert_many`` and ``delete_many`` are conveniences on
    ``StorageBackend`` that build a change set, so a class under
    ``src/repro/`` defining one of them is a second write path.  The memory
    engine's containers, ``Table`` and ``InMemoryDatabase``, are not
    backends and keep their own."""

    SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
    CONVENIENCES = ("insert", "insert_many", "delete_many")
    EXEMPT = {
        ("storage/backends/base.py", "StorageBackend"),
        ("storage/relational_db.py", "Table"),
        ("storage/relational_db.py", "InMemoryDatabase"),
    }

    @classmethod
    def write_methods(cls, source, method_names):
        """``(class, method)`` for each class defining one of *method_names*."""
        return [
            (node.name, item.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ClassDef)
            for item in node.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and item.name in method_names
        ]

    def test_source_scan(self):
        paths = sorted(self.SRC.rglob("*.py"))
        assert paths, f"nothing to scan under {self.SRC}"
        found = []
        for path in paths:
            where = path.relative_to(self.SRC).as_posix()
            for owner, method in self.write_methods(
                path.read_text(), self.CONVENIENCES
            ):
                if (where, owner) not in self.EXEMPT:
                    found.append(f"{where}: {owner}.{method}")
        assert found == []

    def test_each_engine_implements_apply_once(self):
        engines = {
            "storage/backends/memory.py": "MemoryBackend",
            "storage/backends/sqlite.py": "SQLiteBackend",
            "shard/backend.py": "ShardedBackend",
            "replica/backend.py": "ReplicatedBackend",
        }
        for where, engine in engines.items():
            source = (self.SRC / where).read_text()
            assert self.write_methods(source, ("apply",)) == [(engine, "apply")]
        assert "apply" in StorageBackend.__abstractmethods__
        assert "insert_many" not in StorageBackend.__abstractmethods__

    def test_the_scan_catches_what_it_is_for(self):
        source = (
            "class Engine(StorageBackend):\n"
            "    def apply(self, changeset):\n"
            "        pass\n"
            "    def delete_many(self, name, rows):\n"
            "        return 0\n"
        )
        assert self.write_methods(source, self.CONVENIENCES) == [
            ("Engine", "delete_many")
        ]
        assert self.write_methods("def insert_many(rows):\n    pass\n", self.CONVENIENCES) == []
