"""A real RDBMS backend over the Python standard library's ``sqlite3``.

This is the missing right-hand side of paper Figure 2: the "executable
reformulation (SQL)" is not just displayed but actually shipped to a
relational engine.  Tables are created with ``CREATE TABLE``, bulk-loaded
with ``executemany``, indexed on join columns, and reformulations run as
parameterized statements produced by
:func:`~repro.storage.sql.render_sql_query`, so the SQL generation is
validated end-to-end against a genuine query processor.
"""

from __future__ import annotations

import re
import sqlite3
import threading
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ...cost.statistics import KeptStatistics, TableStatistics
from ...errors import EvaluationError, SchemaError, StorageError
from ...logical.queries import ConjunctiveQuery, DerivedPlan
from ...logical.terms import Variable, is_variable
from ...obs.trace import Span, current_span
from ...profile import SCAN, STATEMENT
from ..sql import SQLQuery, quote_identifier, render_sql_query
from .base import Row, StorageBackend


#: One SQLite statement steps at a time in this process.  CPython's
#: ``sqlite3`` releases and re-takes the GIL around every ``sqlite3_step``,
#: i.e. once per result row, so two threads stepping statements at once pay
#: a cross-core GIL handoff on every row.  On two cores, a 1 600-row
#: ``SELECT`` over two ``:memory:`` databases ran 1 063 statements/s on one
#: thread, 234/s on two, and 1 003/s on two with this lock held from the
#: first step to the last row.  A plain ``Lock`` on purpose: nothing called
#: while it is held may take it again.
_STEP_LOCK = threading.Lock()


def _fetch(
    connection: sqlite3.Connection, sql: str, params: Sequence[object] = ()
) -> list:
    """Every row of one statement, stepped under :data:`_STEP_LOCK`.

    The only multi-row read path in this module.  ``sqlite3`` already
    returns each row as a tuple; callers do their Python work on the rows
    after it returns, outside the lock.
    """
    with _STEP_LOCK:
        return connection.execute(sql, params).fetchall()


def _uses_connection(method):
    """Run *method* inside the backend's in-flight guard (see ``_use``)."""
    import functools

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        with self._use():
            return method(self, *args, **kwargs)

    return wrapper


class _BackendSchema:
    """Adapter exposing the backend's column names to the SQL renderer."""

    class _Relation:
        __slots__ = ("attributes",)

        def __init__(self, attributes: Tuple[str, ...]):
            self.attributes = attributes

    def __init__(self, attributes: Dict[str, Tuple[str, ...]]):
        self._attributes = attributes

    def __contains__(self, name: str) -> bool:
        return name in self._attributes

    def relation(self, name: str) -> "_BackendSchema._Relation":
        return self._Relation(self._attributes[name])


class SQLiteBackend(StorageBackend):
    """Executes reformulations as parameterized SQL on a SQLite database.

    The backend owns exactly one :mod:`sqlite3` connection.  Its lifecycle
    is explicit: :meth:`close` releases the connection and is not
    idempotent — closing twice or using any method after :meth:`close`
    raises :class:`~repro.errors.StorageError`.  The connection is created
    with SQLite's default thread affinity (*check_same_thread*), so a single
    backend must not be handed between threads; a
    :class:`~repro.serve.pool.ConnectionPool` hands out :meth:`clone`\\ s
    instead, which are created thread-portable.  Every multi-row read
    steps under one module-level lock, so statements on different
    connections step one at a time per process: with ``sqlite3`` handing
    the GIL over once per row, two threads stepping at once ran slower
    than one thread alone.
    """

    backend_name = "sqlite"

    def __init__(
        self,
        path: str = ":memory:",
        auto_index: bool = True,
        check_same_thread: bool = True,
    ):
        self.path = path
        self.check_same_thread = check_same_thread
        self._connection = sqlite3.connect(path, check_same_thread=check_same_thread)
        self._arities: Dict[str, int] = {}
        self._attributes: Dict[str, Tuple[str, ...]] = {}
        self._schema = _BackendSchema(self._attributes)
        self._indexed: Set[Tuple[str, str]] = set()
        self._kept = KeptStatistics()
        self._data_version = self._read_data_version()
        self.auto_index = auto_index
        self._closed = False
        # Concurrency-safe teardown: operations touching the connection
        # register in-flight under this lock, and close() defers releasing
        # the sqlite3 connection until the last one exits — freeing a
        # connection another thread is stepping is a segfault, not an
        # exception (the replicated backend kills/fences replicas while
        # readers may be mid-query).
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._connection_released = False
        self._adopt_existing_tables()

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError(
                "SQLiteBackend has been closed; create a new backend "
                "(or check a connection out of a pool) instead of reusing it"
            )

    @contextmanager
    def _use(self) -> Iterator[None]:
        """Register one connection-touching operation (see close())."""
        with self._state_lock:
            self._require_open()
            self._inflight += 1
        release = False
        try:
            yield
        finally:
            with self._state_lock:
                self._inflight -= 1
                if (
                    self._closed
                    and self._inflight == 0
                    and not self._connection_released
                ):
                    self._connection_released = True
                    release = True
            if release:
                self._connection.close()

    def _adopt_existing_tables(self) -> None:
        """Register tables already present in an on-disk database file."""
        for (name,) in _fetch(
            self._connection,
            "SELECT name FROM sqlite_master "
            "WHERE type = 'table' AND name NOT LIKE 'sqlite_%'",
        ):
            info = _fetch(
                self._connection, f"PRAGMA table_info({quote_identifier(name)})"
            )
            columns = tuple(row[1] for row in info)
            self._arities[name] = len(columns)
            self._attributes[name] = columns

    # -- schema and data loading ---------------------------------------
    @_uses_connection
    def create_table(
        self, name: str, arity: int, attributes: Optional[Sequence[str]] = None
    ) -> None:
        self._require_open()
        if name in self._arities:
            raise SchemaError(f"table {name} already exists")
        if attributes is not None and len(attributes) != arity:
            raise SchemaError(f"table {name}: attribute count does not match arity")
        columns = tuple(attributes) if attributes else tuple(
            f"c{i}" for i in range(arity)
        )
        column_sql = ", ".join(quote_identifier(column) for column in columns)
        self._connection.execute(
            f"CREATE TABLE {quote_identifier(name)} ({column_sql})"
        )
        self._arities[name] = arity
        self._attributes[name] = columns
        self._kept.written(name)

    def has_table(self, name: str) -> bool:
        return name in self._arities

    @_uses_connection
    def clear_table(self, name: str) -> None:
        self._require_table(name)
        with self._writing((name,)):
            self._connection.execute(f"DELETE FROM {quote_identifier(name)}")
            self._connection.commit()

    @contextmanager
    def _writing(self, names: Iterable[str]) -> Iterator[None]:
        """Drop the kept statistics of *names* once the write has ended.

        Dropped after the write, committed or not, so a measurement taken
        while the write ran is never kept (see :class:`KeptStatistics`).
        """
        try:
            yield
        finally:
            for name in names:
                self._kept.written(name)

    def _insert_rows(self, name: str, rows: Sequence[Row]) -> None:
        """Run the INSERT statements without committing (``apply`` does)."""
        placeholders = ", ".join("?" for _ in self._attributes[name])
        try:
            self._connection.executemany(
                f"INSERT INTO {quote_identifier(name)} VALUES ({placeholders})",
                rows,
            )
        except sqlite3.Error as error:
            # Unbindable values raise InterfaceError on older Pythons and
            # ProgrammingError on 3.12+; both must surface as the typed
            # EvaluationError callers branch on — unless the connection
            # was closed out from under us, which is an engine failure.
            if self._closed:
                raise StorageError(
                    f"SQLiteBackend was closed during execution: {error}"
                ) from error
            raise EvaluationError(
                f"table {name}: value not storable in SQLite ({error})"
            ) from error

    def _delete_rows(self, name: str, rows: Sequence[Row]) -> int:
        """Bag-semantics delete by rowid, without committing.

        Each requested row removes at most one stored occurrence: the
        inner SELECT picks a single matching rowid.  ``IS`` (null-safe
        equality) keeps ``None`` deletable.
        """
        columns = self._attributes[name]
        predicate = " AND ".join(f"{quote_identifier(c)} IS ?" for c in columns)
        statement = (
            f"DELETE FROM {quote_identifier(name)} WHERE rowid = ("
            f"SELECT rowid FROM {quote_identifier(name)} "
            f"WHERE {predicate} LIMIT 1)"
        )
        removed = 0
        try:
            for row in rows:
                cursor = self._connection.execute(statement, row)
                removed += cursor.rowcount if cursor.rowcount > 0 else 0
        except sqlite3.Error as error:
            if self._closed:
                raise StorageError(
                    f"SQLiteBackend was closed during execution: {error}"
                ) from error
            raise EvaluationError(
                f"table {name}: delete failed ({error})"
            ) from error
        return removed

    @_uses_connection
    def apply(self, changeset: "ChangeSet") -> "Counter[str]":
        """Apply a whole change set in one transaction (all or nothing)."""
        changeset.check(self._require_table)
        removed: Counter[str] = Counter()
        with self._writing(changeset.relations()):
            try:
                for change in changeset.changes:
                    if change.deletes:
                        removed[change.relation] += self._delete_rows(
                            change.relation, change.deletes
                        )
                    if change.inserts:
                        self._insert_rows(change.relation, change.inserts)
                self._connection.commit()
            except Exception:
                try:
                    self._connection.rollback()
                except sqlite3.Error:
                    pass
                raise
        return removed

    def _require_table(self, name: str) -> int:
        self._require_open()
        try:
            return self._arities[name]
        except KeyError as error:
            raise EvaluationError(f"unknown table {name!r}") from error

    # -- inspection ----------------------------------------------------
    @property
    def table_names(self) -> Tuple[str, ...]:
        return tuple(self._arities)

    @_uses_connection
    def rows(self, name: str) -> Sequence[Row]:
        self._require_table(name)
        return tuple(
            _fetch(
                self._connection,
                f"SELECT * FROM {quote_identifier(name)} ORDER BY rowid",
            )
        )

    @_uses_connection
    def cardinalities(self) -> Dict[str, int]:
        self._require_open()
        counts: Dict[str, int] = {}
        for name in self._arities:
            cursor = self._connection.execute(
                f"SELECT COUNT(*) FROM {quote_identifier(name)}"
            )
            counts[name] = int(cursor.fetchone()[0])
        return counts

    @_uses_connection
    def cardinality(self, name: str) -> int:
        self._require_open()
        if name not in self._arities:
            return 0
        cursor = self._connection.execute(
            f"SELECT COUNT(*) FROM {quote_identifier(name)}"
        )
        return int(cursor.fetchone()[0])

    def _read_data_version(self) -> int:
        """``PRAGMA data_version``: moves when another connection commits."""
        return self._connection.execute("PRAGMA data_version").fetchone()[0]

    @_uses_connection
    def _kept_statistics(self) -> KeptStatistics:
        """The kept measurements, all dropped once another connection wrote.

        A file database is shared with its clones, whose writes this
        connection does not see happen; ``PRAGMA data_version`` tells that
        one happened.
        """
        version = self._read_data_version()
        if version != self._data_version:
            self._kept.clear()
            self._data_version = version
        return self._kept

    @_uses_connection
    def _measure_statistics(self, name: str) -> TableStatistics:
        """Exact row and distinct counts of *name*, as memory reports them.

        ``COUNT(*)`` and one ``COUNT(DISTINCT …)`` per column, whichever
        indexes exist.  ``ANALYZE`` of the table runs here too, so
        ``sqlite_stat1``, which feeds SQLite's own join order and not the
        catalog, follows the writes.
        """
        table = quote_identifier(name)
        self._connection.execute(f"ANALYZE {table}")
        distinct = tuple(
            float(
                self._connection.execute(
                    f"SELECT COUNT(DISTINCT {quote_identifier(column)}) FROM {table}"
                ).fetchone()[0]
            )
            for column in self._attributes[name]
        )
        return TableStatistics(
            name=name,
            row_count=float(self.cardinality(name)),
            distinct_counts=distinct,
        )

    # -- execution -----------------------------------------------------
    def _columns_key(self, record: DerivedPlan) -> Tuple[object, ...]:
        """The column names *record*'s SQL and index list are derived from.

        Every shard and clone of one schema gives an equal key, so they
        share one rendering; a store naming its columns differently
        renders its own.
        """
        return tuple(self._attributes.get(relation) for relation in record.relations)

    def compile_query(self, query: ConjunctiveQuery, distinct: bool = True) -> SQLQuery:
        """The parameterized SQL the backend will run for *query*.

        Rendered once per plan, distinctness and column names, and kept on
        the plan's :class:`~repro.logical.queries.DerivedPlan`.
        """
        record = query.derived()
        return record.derive(
            ("sql", distinct), self._columns_key(record),
            render_sql_query, record.normalized, self._schema, distinct,
        )

    @_uses_connection
    def execute(self, query: ConjunctiveQuery, distinct: bool = True) -> List[Row]:
        self._require_open()
        self._check_relations(query)
        if self.auto_index:
            self.ensure_indexes(query)
        statement = self.compile_query(query, distinct=distinct)
        span = current_span()
        node = None
        try:
            if span.profiled:
                # The engine is a black box below the statement, so the row
                # counter sits on the statement node (estimate vs. the rows
                # the cursor actually produced) beside the engine's own plan,
                # read before the node's clock starts; per-atom ``scan``
                # children carry the real table cardinalities it read.
                engine_plan = [
                    row[-1]
                    for row in _fetch(
                        self._connection,
                        "EXPLAIN QUERY PLAN " + statement.sql,
                        statement.params,
                    )
                ]
                node = span.operator(
                    STATEMENT, query.name,
                    engine="sqlite", engine_plan=engine_plan,
                )
                node.estimated_rows = self._attach_profile_scans(node, query)
            result = _fetch(self._connection, statement.sql, statement.params)
        except sqlite3.Error as error:
            if node is not None:
                node.annotate(error=type(error).__name__)
                node.finish()
            if self._closed:
                # The connection was closed out from under a running query
                # (a replica killed mid-read): that is an engine failure,
                # not a query bug, so surface it as the StorageError the
                # replicated backend's failover reacts to.
                raise StorageError(
                    f"SQLiteBackend was closed during execution: {error}"
                ) from error
            raise EvaluationError(
                f"SQLite rejected the reformulation SQL: {error}\n{statement.sql}"
            ) from error
        if node is not None:
            node.finish(actual_rows=len(result))
        return result

    def _attach_profile_scans(self, node: Span, query: ConjunctiveQuery) -> float:
        """Per-atom ``scan`` children.

        Returns the planner's result estimate for *query* — the last
        :meth:`estimate_pipeline` step — which the caller attaches to *node*.
        """
        for atom in query.derived().normalized.relational_body:
            scan = node.operator(SCAN, atom.relation, relation=atom.relation)
            scan.finish(actual_rows=self.cardinality(atom.relation))
        steps = self.estimate_pipeline(query)
        return steps[-1] if steps else 1.0

    # -- indexing ------------------------------------------------------
    @_uses_connection
    def ensure_indexes(self, query: ConjunctiveQuery) -> List[str]:
        """Create indexes on the join/selection columns *query* touches.

        A column is worth indexing when its term is a constant (selection)
        or a variable shared between at least two atom positions (join key).
        Index creation is idempotent; the names created by this call are
        returned (useful for tests and the benchmarks).  Each table that
        gained an index in the database is then ``ANALYZE``d in the same
        call, so SQLite orders its joins from real per-index statistics
        instead of its default guess; a call that creates nothing runs no
        ``ANALYZE``.

        The columns are derived once per plan and column names (kept on
        its :class:`~repro.logical.queries.DerivedPlan`); which of them
        this connection has seen indexed is its own, because the clones of
        a ``:memory:`` database are separate databases.  An index another
        connection to the same file already built (and analyzed) is only
        noted: re-analyzing it would commit, and every connection's next
        statistics refresh would re-measure every table.
        """
        self._require_open()
        record = query.derived()
        columns = record.derive(
            "indexes", self._columns_key(record),
            self._index_columns, record.normalized,
        )
        missing = [key for key in columns if key not in self._indexed]
        if not missing:
            return []
        existing = {
            name
            for (name,) in _fetch(
                self._connection,
                "SELECT name FROM sqlite_master WHERE type = 'index'",
            )
        }
        created: List[str] = []
        analyze: List[str] = []
        for key in missing:
            relation, column = key
            index_name = self._index_name(relation, column)
            if index_name not in existing:
                self._index_statement(
                    f"CREATE INDEX IF NOT EXISTS {quote_identifier(index_name)} "
                    f"ON {quote_identifier(relation)} "
                    f"({quote_identifier(column)})",
                    f"could not index {relation}.{column}",
                )
                created.append(index_name)
                if relation not in analyze:
                    analyze.append(relation)
            self._indexed.add(key)
        for relation in analyze:
            self._index_statement(
                f"ANALYZE {quote_identifier(relation)}",
                f"could not analyze {relation}",
            )
        if created:
            self._connection.commit()
        return created

    def _index_columns(
        self, normalized: ConjunctiveQuery
    ) -> Tuple[Tuple[str, str], ...]:
        """The ``(relation, column)`` pairs worth indexing for *normalized*.

        A column is worth indexing when its term is a constant (selection)
        or a variable shared between at least two atom positions (join key).
        """
        occurrences: Dict[Variable, int] = {}
        for atom in normalized.relational_body:
            for term in atom.terms:
                if is_variable(term):
                    occurrences[term] = occurrences.get(term, 0) + 1
        columns: Dict[Tuple[str, str], None] = {}
        for atom in normalized.relational_body:
            attributes = self._attributes.get(atom.relation)
            if attributes is None:
                continue
            for position, term in enumerate(atom.terms):
                if (not is_variable(term)) or occurrences[term] > 1:
                    columns[atom.relation, attributes[position]] = None
        return tuple(columns)

    def _index_statement(self, sql: str, failure: str) -> None:
        """Run one ``ensure_indexes`` statement with its error mapping."""
        try:
            self._connection.execute(sql)
        except sqlite3.Error as error:
            if self._closed:
                raise StorageError(
                    f"SQLiteBackend was closed during execution: {error}"
                ) from error
            raise EvaluationError(f"{failure}: {error}") from error

    @staticmethod
    def _index_name(relation: str, column: str) -> str:
        slug = re.sub(r"[^A-Za-z0-9_]", "_", f"{relation}__{column}")
        return f"ix_{slug}"

    # -- lifecycle -----------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def clone_is_snapshot(self) -> bool:
        """Per-connection databases snapshot on clone; file databases share."""
        return self.path in (":memory:", "")

    def close(self) -> None:
        """Release the connection.  Closing twice raises :class:`StorageError`.

        Safe under concurrent use: the backend is marked closed at once
        (new operations raise :class:`StorageError` — the replicated
        backend's failover signal), but the underlying sqlite3 connection
        is only freed when the last in-flight operation exits — closing a
        connection another thread is actively stepping crashes the
        interpreter rather than raising.
        """
        release = False
        with self._state_lock:
            if self._closed:
                raise StorageError("SQLiteBackend.close() called twice")
            self._closed = True
            if self._inflight == 0:
                self._connection_released = True
                release = True
        if release:
            self._connection.close()

    @_uses_connection
    def clone(self) -> "SQLiteBackend":
        """A new backend over the same data, safe to hand to another thread.

        For an on-disk database the clone is simply a second connection to
        the same file.  For per-connection databases — ``:memory:`` and
        SQLite's unnamed temporary database (``path=""``) — a second
        connection would see a different, empty database, so the current
        contents are snapshotted into the clone with SQLite's online backup
        API and pooled read connections serve the data the template held at
        checkout-creation time.  Clones are created with
        ``check_same_thread=False`` — a pool checks a clone out to one
        thread at a time, which sqlite3 supports on any build.
        """
        self._require_open()
        clone = SQLiteBackend.__new__(SQLiteBackend)
        clone.path = self.path
        clone.check_same_thread = False
        clone._connection = sqlite3.connect(self.path, check_same_thread=False)
        if self.path in (":memory:", ""):
            self._connection.backup(clone._connection)
        # The clone's version is read before the template's kept entries
        # are checked, so a write from elsewhere between the two reaches
        # the clone's next check as well.
        clone._data_version = clone._read_data_version()
        clone._kept = self._kept_statistics().copy()
        clone._arities = dict(self._arities)
        clone._attributes = dict(self._attributes)
        clone._schema = _BackendSchema(clone._attributes)
        clone._indexed = set(self._indexed)
        clone.auto_index = self.auto_index
        clone._closed = False
        clone._state_lock = threading.Lock()
        clone._inflight = 0
        clone._connection_released = False
        clone._statistics_catalog = self._statistics_catalog
        return clone
