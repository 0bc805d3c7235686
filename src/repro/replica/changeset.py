"""Change sets and the mutation log: the write path's data model.

A MARS deployment used to be read-only after build: refreshing data meant
rebuilding the whole service.  The write path fixes that with two small
value types:

* a :class:`ChangeSet` — per-relation batches of row inserts and deletes
  (an update is a delete plus an insert).  Every
  :class:`~repro.storage.backends.base.StorageBackend` can ``apply`` one;
  the sharded backend routes each row to the shard its partitioner names
  and broadcasts changes to unpartitioned tables, the replicated backend
  applies to every replica.

* a :class:`MutationLog` — an append-only, monotonically LSN-stamped
  sequence of applied change sets.  Pooled backend clones are *snapshots*
  of the template at clone time; instead of rebuilding the pool after a
  write, each clone remembers the LSN it has applied and the pool replays
  the log tail on checkout/checkin (see
  :class:`~repro.serve.pool.ConnectionPool`).  The log is the same
  mechanism the online :class:`~repro.replica.rebalancer.Rebalancer` uses
  to catch a freshly copied shard layout up with writes that landed during
  the copy.

Deletes follow bag semantics: one requested delete row removes at most one
stored occurrence, so multisets stay consistent across engines.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from itertools import chain
from typing import (
    Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple,
)

from ..errors import EvaluationError, StorageError

Row = Tuple[object, ...]


@dataclass(frozen=True)
class TableChange:
    """Insert/delete row batches against one relation."""

    relation: str
    inserts: Tuple[Row, ...] = ()
    deletes: Tuple[Row, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "inserts", tuple(map(tuple, self.inserts)))
        object.__setattr__(self, "deletes", tuple(map(tuple, self.deletes)))

    @property
    def touched(self) -> int:
        """How many rows this change writes (inserts plus deletes)."""
        return len(self.inserts) + len(self.deletes)

    def is_empty(self) -> bool:
        return not self.inserts and not self.deletes


@dataclass(frozen=True)
class ChangeSet:
    """One atomic batch of table changes (the unit the log records).

    Backends apply the per-relation deletes before the inserts, in the
    order the changes are listed, so a row update is expressed as a delete
    of the old row plus an insert of the new one inside a single change.
    """

    changes: Tuple[TableChange, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "changes", tuple(self.changes))

    @classmethod
    def build(
        cls,
        inserts: Optional[Mapping[str, Iterable[Sequence[object]]]] = None,
        deletes: Optional[Mapping[str, Iterable[Sequence[object]]]] = None,
    ) -> "ChangeSet":
        """Assemble a change set from ``{relation: rows}`` mappings."""
        merged: Dict[str, Dict[str, List[Row]]] = {}
        for relation, rows in (inserts or {}).items():
            merged.setdefault(relation, {"ins": [], "del": []})["ins"].extend(
                tuple(row) for row in rows
            )
        for relation, rows in (deletes or {}).items():
            merged.setdefault(relation, {"ins": [], "del": []})["del"].extend(
                tuple(row) for row in rows
            )
        return cls(
            changes=tuple(
                TableChange(
                    relation=relation,
                    inserts=tuple(parts["ins"]),
                    deletes=tuple(parts["del"]),
                )
                for relation, parts in merged.items()
            )
        )

    def relations(self) -> Tuple[str, ...]:
        seen: Dict[str, None] = {}
        for change in self.changes:
            seen.setdefault(change.relation, None)
        return tuple(seen)

    def touched(self, relation: Optional[str] = None) -> int:
        """Rows written, for one relation or in total."""
        return sum(
            change.touched
            for change in self.changes
            if relation is None or change.relation == relation
        )

    def is_empty(self) -> bool:
        return all(change.is_empty() for change in self.changes)

    def check(self, arity_of: Callable[[str], int]) -> None:
        """Raise :class:`~repro.errors.EvaluationError` unless every row of
        every change has its table's arity.

        *arity_of* answers a table's arity and raises for a table the store
        does not hold.  Every engine's ``apply`` (and the sharded
        ``route_changeset``) calls this before it writes or routes
        anything, so a rejected change set leaves every store as it was.
        """
        for change in self.changes:
            arity = arity_of(change.relation)
            wrong = set(map(len, chain(change.inserts, change.deletes))) - {arity}
            if wrong:
                raise EvaluationError(
                    f"table {change.relation}: expected {arity} values, "
                    f"got {min(wrong)}"
                )

    def restricted_to(self, relations: Iterable[str]) -> "ChangeSet":
        """The sub-change-set touching only *relations* (may be empty)."""
        wanted = set(relations)
        return ChangeSet(
            changes=tuple(
                change for change in self.changes if change.relation in wanted
            )
        )

    def __str__(self) -> str:
        parts = ", ".join(
            f"{change.relation}(+{len(change.inserts)}/-{len(change.deletes)})"
            for change in self.changes
        )
        return f"ChangeSet[{parts}]"


class LogEntry(NamedTuple):
    """One committed change set and the LSN it was assigned."""

    lsn: int
    changeset: ChangeSet


class MutationLog:
    """An append-only log of change sets with monotonic LSNs.

    Thread-safe.  ``append`` assigns the next LSN; readers call
    ``entries_since(lsn)`` to fetch the tail they have not applied yet.
    ``compact(through_lsn)`` drops entries every reader has consumed —
    asking for a tail older than the compaction floor raises
    :class:`~repro.errors.StorageError` (the reader is too stale to catch
    up incrementally and must be rebuilt).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._entries: List[LogEntry] = []
        self._lsn = 0
        self._floor = 0

    @property
    def lsn(self) -> int:
        """The LSN of the newest entry (0 when nothing was ever appended)."""
        with self._lock:
            return self._lsn

    @property
    def floor(self) -> int:
        """Entries at or below this LSN have been compacted away."""
        with self._lock:
            return self._floor

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def append(self, changeset: ChangeSet) -> int:
        """Record *changeset* and return the LSN it was assigned."""
        with self._lock:
            self._lsn += 1
            self._entries.append(LogEntry(self._lsn, changeset))
            return self._lsn

    def entries_since(self, lsn: int) -> Tuple[LogEntry, ...]:
        """Every entry with an LSN strictly greater than *lsn*, in order."""
        with self._lock:
            if lsn < self._floor:
                raise StorageError(
                    f"mutation log was compacted through LSN {self._floor}; "
                    f"a reader at LSN {lsn} can no longer catch up"
                )
            # Entries are appended in LSN order; LSNs are dense, so the
            # tail starts at a computable offset.
            start = max(0, lsn - self._floor)
            return tuple(self._entries[start:])

    def compact(self, through_lsn: int) -> int:
        """Drop entries with ``lsn <= through_lsn``; returns how many."""
        with self._lock:
            if through_lsn <= self._floor:
                return 0
            through_lsn = min(through_lsn, self._lsn)
            dropped = through_lsn - self._floor
            self._entries = self._entries[dropped:]
            self._floor = through_lsn
            return dropped

    def close(self) -> None:
        """Release any resources the log holds; a no-op in memory.

        The durable subclass overrides this to seal its active segment
        and close its file handle; callers (the publishing service) close
        whichever log they were given without caring which kind it is.
        """
