"""A small in-memory relational database.

MARS itself is middleware: it reformulates queries and ships them to real
engines.  For the reproduction we need an actual substrate to execute both
the original and the reformulated queries, so correctness of reformulations
can be verified end-to-end and execution-time savings can be measured.  This
module provides that substrate: named tables holding tuples, with optional
attribute names taken from a :class:`~repro.logical.schema.RelationalSchema`.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..cost.statistics import KeptStatistics
from ..errors import EvaluationError, SchemaError
from ..logical.schema import RelationalSchema

Row = Tuple[object, ...]
#: A hash index: the rows of a table keyed by their values at some positions.
RowIndex = Dict[Tuple[object, ...], List[Row]]


class Table:
    """A named table: an ordered multiset of fixed-arity tuples."""

    def __init__(self, name: str, arity: int, attributes: Optional[Sequence[str]] = None):
        if attributes is not None and len(attributes) != arity:
            raise SchemaError(f"table {name}: attribute count does not match arity")
        self.name = name
        self.arity = arity
        self.attributes = tuple(attributes) if attributes else tuple(
            f"c{i}" for i in range(arity)
        )
        self._rows: List[Row] = []

    def index(self, positions: Tuple[int, ...]) -> RowIndex:
        """The rows keyed by their values at *positions*, built on each call."""
        index: RowIndex = {}
        for row in self._rows:
            index.setdefault(tuple(row[p] for p in positions), []).append(row)
        return index

    def _written(self) -> None:
        """Called after every write that changed the rows."""

    def insert(self, row: Sequence[object]) -> None:
        """Append *row*, validating its arity."""
        self.insert_many((row,))

    def insert_many(self, rows: Iterable[Sequence[object]]) -> None:
        """Append *rows*; nothing is stored unless every row has the arity."""
        prepared = [tuple(row) for row in rows]
        for row in prepared:
            if len(row) != self.arity:
                raise EvaluationError(
                    f"table {self.name}: expected {self.arity} values, got {len(row)}"
                )
        if prepared:
            self._rows.extend(prepared)
            self._written()

    def clear(self) -> None:
        self._rows.clear()
        self._written()

    def delete_many(self, rows: Iterable[Sequence[object]]) -> int:
        """Remove at most one stored occurrence per requested row (bag delete)."""
        pending = Counter(tuple(row) for row in rows)
        if not pending:
            return 0
        kept: List[Row] = []
        removed = 0
        for row in self._rows:
            if pending.get(row, 0) > 0:
                pending[row] -= 1
                removed += 1
            else:
                kept.append(row)
        if removed:
            self._rows = kept
            self._written()
        return removed

    def copy(self) -> "Table":
        """An independent table holding the same rows (snapshot)."""
        duplicate = Table(self.name, self.arity, self.attributes)
        duplicate._rows = list(self._rows)
        return duplicate

    @property
    def rows(self) -> Tuple[Row, ...]:
        return tuple(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __str__(self) -> str:
        return f"{self.name}[{len(self)} rows]"


class IndexedTable(Table):
    """A table that keeps the hash indexes its readers ask for until its
    next write.

    The sharded backend's gather holds the fragments it fetched in these,
    so a repeated gather over unchanged data only probes.  A backend's own
    tables build their indexes per evaluation instead: that is the scan
    the shard router prices for every shard of a scatter.

    A write drops the indexes by assigning a fresh dict, never by mutating
    the old one, and an index is stored only once it is complete, so a
    concurrent reader sees a whole index or none.
    """

    def __init__(self, name: str, arity: int, attributes: Optional[Sequence[str]] = None):
        super().__init__(name, arity, attributes)
        self._indexes: Dict[Tuple[int, ...], RowIndex] = {}

    def index(self, positions: Tuple[int, ...]) -> RowIndex:
        index = self._indexes.get(positions)
        if index is None:
            index = super().index(positions)
            self._indexes[positions] = index
        return index

    def _written(self) -> None:
        self._indexes = {}


class InMemoryDatabase:
    """A collection of named tables, optionally validated against a schema.

    The database keeps the statistics last measured of each table
    (:attr:`kept_statistics`) and drops a table's entry on every write
    made through it, so every backend over this database re-measures
    exactly the tables written since.  Write through the database, not a
    :class:`Table` it holds, for its statistics to follow.
    """

    def __init__(self, schema: Optional[RelationalSchema] = None):
        self.schema = schema
        self._tables: Dict[str, Table] = {}
        self.kept_statistics = KeptStatistics()
        if schema is not None:
            for relation in schema.relations:
                self.create_table(relation.name, relation.arity, relation.attributes)

    # ------------------------------------------------------------------
    def create_table(
        self, name: str, arity: int, attributes: Optional[Sequence[str]] = None
    ) -> Table:
        return self.add_table(Table(name, arity, attributes))

    def add_table(self, table: Table) -> Table:
        """Hold *table* itself under its name (it is not copied)."""
        if table.name in self._tables:
            raise SchemaError(f"table {table.name} already exists")
        self._tables[table.name] = table
        self.kept_statistics.written(table.name)
        return table

    def table(self, name: str) -> Table:
        try:
            return self._tables[name]
        except KeyError as error:
            raise EvaluationError(f"unknown table {name!r}") from error

    def has_table(self, name: str) -> bool:
        return name in self._tables

    def insert(self, name: str, row: Sequence[object]) -> None:
        self.insert_many(name, (row,))

    def insert_many(self, name: str, rows: Iterable[Sequence[object]]) -> None:
        self.table(name).insert_many(rows)
        self.kept_statistics.written(name)

    def clear_table(self, name: str) -> None:
        """Delete every row of *name* (the table itself remains declared)."""
        self.table(name).clear()
        self.kept_statistics.written(name)

    def delete_many(self, name: str, rows: Iterable[Sequence[object]]) -> int:
        """Bag-semantics delete: each row removes at most one occurrence."""
        removed = self.table(name).delete_many(rows)
        self.kept_statistics.written(name)
        return removed

    def copy(self) -> "InMemoryDatabase":
        """An independent database holding snapshots of every table.

        The snapshot holds the same rows, so it keeps the same statistics.
        """
        duplicate = InMemoryDatabase()
        duplicate.schema = self.schema
        for name, table in self._tables.items():
            duplicate._tables[name] = table.copy()
        duplicate.kept_statistics = self.kept_statistics.copy()
        return duplicate

    def rows(self, name: str) -> Tuple[Row, ...]:
        """The rows of table *name*, in insertion order."""
        return self.table(name).rows

    def cardinality(self, name: str) -> int:
        """Number of rows in *name* (0 if the table does not exist)."""
        if name not in self._tables:
            return 0
        return len(self._tables[name])

    @property
    def table_names(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def cardinalities(self) -> Dict[str, int]:
        """Mapping of table name to row count, used by the default cost model."""
        return {name: len(table) for name, table in self._tables.items()}

    def __contains__(self, name: str) -> bool:
        return name in self._tables

    def __str__(self) -> str:
        parts = ", ".join(f"{name}({len(table)})" for name, table in self._tables.items())
        return f"InMemoryDatabase[{parts}]"
