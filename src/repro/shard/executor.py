"""Fan-out execution of per-shard sub-queries on a thread pool.

The :class:`ScatterGatherExecutor` runs one thunk per shard and returns the
results in shard order.  The fan-out overlaps waiting, not stepping: the
``sqlite`` child backends step one statement at a time per process (the
SQLite backend holds one lock from a statement's first row to its last,
because ``sqlite3`` hands the GIL over once per row and two threads
stepping together ran slower than one), and ``memory`` children are pure
Python, serialized by the GIL.  Parallel stepping across shards needs
worker processes, not threads.

The thread pool is created lazily (a backend that only ever sees
single-shard pruned queries never starts a thread) and sized to the shard
count by default.  A single-task scatter runs inline on the calling thread:
the pruned fast path must not pay a thread hop.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

Task = Tuple[int, Callable[[], T]]


class ScatterGatherExecutor:
    """Runs per-shard thunks concurrently and collects results in order."""

    def __init__(self, max_workers: int, name: str = "shard"):
        if max_workers < 1:
            raise ValueError(f"scatter/gather needs max_workers >= 1, got {max_workers}")
        self._max_workers = max_workers
        self._name = name
        self._pool: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()

    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self._max_workers,
                    thread_name_prefix=f"mars-{self._name}",
                )
            return self._pool

    # ------------------------------------------------------------------
    def run(self, tasks: Sequence[Task]) -> List[Tuple[int, T]]:
        """Execute every ``(shard_id, thunk)`` and return ``(shard_id, result)``.

        Results keep the order of *tasks* (callers pass shards in ascending
        id order, so merges are deterministic).  The first thunk exception
        propagates to the caller after all futures were issued.
        """
        if not tasks:
            return []
        if len(tasks) == 1:
            shard_id, thunk = tasks[0]
            return [(shard_id, thunk())]
        pool = self._ensure_pool()
        futures = [(shard_id, pool.submit(thunk)) for shard_id, thunk in tasks]
        return [(shard_id, future.result()) for shard_id, future in futures]

    def shutdown(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)


def merge_rows(
    per_shard: Sequence[Tuple[int, List[tuple]]], distinct: bool
) -> List[tuple]:
    """Combine per-shard answers under set (*distinct*) or bag semantics.

    Partitioned fragments are disjoint, so bag semantics is plain
    concatenation in shard order; set semantics de-duplicates across shards
    (each shard already de-duplicated its own answer).
    """
    if not distinct:
        combined: List[tuple] = []
        for _shard, rows in per_shard:
            combined.extend(rows)
        return combined
    seen: set = set()
    merged: List[tuple] = []
    for _shard, rows in per_shard:
        for row in rows:
            if row not in seen:
                seen.add(row)
                merged.append(row)
    return merged
