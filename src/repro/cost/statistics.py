"""Statistics catalogs: per-relation row counts and per-column distinct counts.

The cost subsystem separates *what is known about the data* from *how cost
is derived from it*.  This module is the first half: a
:class:`StatisticsCatalog` maps relation names to :class:`TableStatistics`
records (row count, per-column distinct-value counts, per-shard fragment
sizes) plus per-relation access weights (navigating native XML is more
expensive than scanning a relational table).

Catalogs come from two places:

* **declared** — ``MarsConfiguration.build_statistics()`` derives a
  catalog from the configuration's declarations (relational data,
  document node counts) under the administrator's overrides, which are
  themselves a catalog: ``configuration.statistics``.  This is what
  :class:`~repro.core.system.MarsSystem` plans with before any instance is
  built.
* **collected** — every
  :class:`~repro.storage.backends.base.StorageBackend` implements
  ``collect_statistics()`` returning a catalog measured from the live
  data: the memory backend profiles the rows its hash-join evaluator
  scans, the SQLite backend counts exactly with ``COUNT`` queries, and
  the sharded backend merges its children's catalogs (summing
  partitioned fragments, keeping one copy of broadcast tables).
  ``sqlite_stat1`` feeds SQLite's join order; the catalog is exact counts
  on every backend.  A store keeps what it measured per relation
  (:class:`KeptStatistics`) until that relation is written, so a refresh
  re-measures only the relations written since the last one.

Turning a catalog into a cardinality or a cost is the other half,
:class:`~repro.cost.model.CostModel`; nothing else reads these records
for arithmetic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

DEFAULT_ROW_COUNT = 1000.0


@dataclass(frozen=True)
class TableStatistics:
    """What is known about one stored relation.

    ``distinct_counts`` holds one entry per column position; a value ``<= 0``
    (or a tuple shorter than the arity) means the distinct count of that
    column is unknown.  ``fragment_rows`` is filled by the sharded backend:
    the row count each shard holds (broadcast tables repeat the full count).
    """

    name: str
    row_count: float
    distinct_counts: Tuple[float, ...] = ()
    fragment_rows: Tuple[float, ...] = ()

    def distinct(self, position: int) -> Optional[float]:
        """Distinct values in column *position*, or ``None`` when unknown."""
        if 0 <= position < len(self.distinct_counts):
            value = self.distinct_counts[position]
            if value > 0:
                return value
        return None

    def scaled(self, factor: float) -> "TableStatistics":
        """Statistics of a uniform 1/*factor* fragment of this table.

        Used by the routing cost model to reason about per-shard fragments:
        row counts scale linearly, distinct counts scale but never above the
        scaled row count and never below 1.
        """
        rows = max(1.0, self.row_count * factor)
        distinct = tuple(
            min(rows, max(1.0, value * factor)) if value > 0 else value
            for value in self.distinct_counts
        )
        return replace(self, row_count=rows, distinct_counts=distinct)


class StatisticsCatalog:
    """Relation statistics plus access weights, consumed by the cost model."""

    def __init__(
        self,
        tables: Optional[Mapping[str, TableStatistics]] = None,
        access_weights: Optional[Mapping[str, float]] = None,
        default_row_count: float = DEFAULT_ROW_COUNT,
        default_weight: float = 1.0,
    ):
        self.tables: Dict[str, TableStatistics] = dict(tables or {})
        self.access_weights: Dict[str, float] = dict(access_weights or {})
        self.default_row_count = default_row_count
        self.default_weight = default_weight

    # -- construction ---------------------------------------------------
    def add(self, statistics: TableStatistics) -> None:
        self.tables[statistics.name] = statistics

    def set_cardinality(self, relation: str, row_count: float) -> None:
        """Declare *relation*'s row count; its distinct counts become unknown."""
        self.add(TableStatistics(name=relation, row_count=float(row_count)))

    def set_weight(self, relation: str, weight: float) -> None:
        self.access_weights[relation] = float(weight)

    @classmethod
    def from_rows(cls, tables: Mapping[str, object]) -> "StatisticsCatalog":
        """Profile literal row collections: ``{name: [rows...]}``.

        >>> catalog = StatisticsCatalog.from_rows(
        ...     {"orders": [("c1", 1), ("c1", 2), ("c2", 3)]}
        ... )
        >>> catalog.row_count("orders")
        3.0
        >>> catalog.distinct("orders", 0)
        2.0
        """
        catalog = cls()
        for name, rows in tables.items():
            catalog.add(profile_rows(name, rows))
        return catalog

    # -- lookups --------------------------------------------------------
    def __contains__(self, relation: str) -> bool:
        return relation in self.tables

    def table(self, relation: str) -> Optional[TableStatistics]:
        return self.tables.get(relation)

    def row_count(self, relation: str) -> float:
        statistics = self.tables.get(relation)
        if statistics is None:
            return self.default_row_count
        return statistics.row_count

    def distinct(self, relation: str, position: int) -> Optional[float]:
        statistics = self.tables.get(relation)
        if statistics is None:
            return None
        return statistics.distinct(position)

    def weight(self, relation: str) -> float:
        return float(self.access_weights.get(relation, self.default_weight))

    def scan_cost(self, relation: str) -> float:
        """Cost of one full scan: row count times the access weight."""
        return self.row_count(relation) * self.weight(relation)

    def describe(self) -> str:
        lines = []
        for name in sorted(self.tables):
            statistics = self.tables[name]
            distinct = ", ".join(
                f"{value:g}" if value > 0 else "?"
                for value in statistics.distinct_counts
            )
            suffix = ""
            if statistics.fragment_rows:
                fragments = "/".join(f"{f:g}" for f in statistics.fragment_rows)
                suffix = f" fragments={fragments}"
            lines.append(
                f"{name}: {statistics.row_count:g} rows"
                f" distinct=({distinct})"
                f" weight={self.weight(name):g}{suffix}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"StatisticsCatalog({len(self.tables)} tables)"


class KeptStatistics:
    """The :class:`TableStatistics` a store last measured, per relation.

    The store calls :meth:`written` once a write to a relation has ended,
    which drops that relation's entry, and :meth:`clear` when writes it
    cannot attribute happened (another connection to a shared file).
    ``collect_statistics`` re-measures only the relations with no entry.
    Every drop moves :attr:`writes`; :meth:`keep` stores a measurement
    only when it did not move since the measurement began, so a write that
    overlapped one cannot leave its stale counts behind.
    """

    def __init__(self, entries: Optional[Mapping[str, TableStatistics]] = None):
        self._entries: Dict[str, TableStatistics] = dict(entries or {})
        self._lock = threading.Lock()
        #: Drops so far; read it before measuring and hand it to :meth:`keep`.
        self.writes = 0

    def get(self, relation: str) -> Optional[TableStatistics]:
        return self._entries.get(relation)

    def keep(self, statistics: TableStatistics, writes: int) -> None:
        """Keep *statistics* unless a drop came after *writes* was read."""
        with self._lock:
            if writes == self.writes:
                self._entries[statistics.name] = statistics

    def written(self, relation: str) -> None:
        with self._lock:
            self.writes += 1
            self._entries.pop(relation, None)

    def clear(self) -> None:
        with self._lock:
            self.writes += 1
            self._entries.clear()

    def copy(self) -> "KeptStatistics":
        """The same entries, for a copy of the store holding the same data."""
        with self._lock:
            return KeptStatistics(self._entries)


def profile_rows(name: str, rows: object) -> TableStatistics:
    """Exact statistics of an in-memory row collection."""
    materialized = [tuple(row) for row in rows]
    if not materialized:
        return TableStatistics(name=name, row_count=0.0)
    arity = len(materialized[0])
    distinct = tuple(
        float(len({row[position] for row in materialized}))
        for position in range(arity)
    )
    return TableStatistics(
        name=name, row_count=float(len(materialized)), distinct_counts=distinct
    )
