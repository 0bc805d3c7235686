"""Checkout/checkin pooling of storage-backend connections.

A :class:`ConnectionPool` wraps one fully-built *template* backend (the one
a :class:`~repro.core.executor.MarsExecutor` loaded with the proprietary
tables) and hands out up to ``size`` clones of it, one per concurrent
client.  All clones are created eagerly, in the constructing thread,
through :meth:`~repro.storage.backends.StorageBackend.clone` — cloning may
need to *read* the template (SQLite's backup API), and the template
connection keeps its thread affinity, so clone creation must not happen
lazily on whichever serving thread first runs dry.  The clones themselves
are thread-portable:

* ``memory`` clones are independent snapshots of the tables;
* ``sqlite`` clones are fresh connections — a second connection to the same
  file, or a backup-API snapshot for ``:memory:`` databases — created with
  ``check_same_thread=False`` so a connection built by one thread can later
  be checked out by another.

Snapshot clones would go stale the moment the template accepts a write,
so a pool built with a :class:`~repro.replica.changeset.MutationLog`
tracks the LSN each clone has applied and **replays the log tail onto the
clone at checkout and checkin** — updating the service no longer means
rebuilding the pool, and a checkout never observes data older than the
log head (the read-your-writes barrier ``publish`` relies on).  Backends
whose clones share storage with the template (an on-disk SQLite file,
``clone_is_snapshot == False``) skip replay: their writes are visible
directly.

The pool never hands the same connection to two threads at once, so no
backend-internal locking is needed.  Admission control bounds the wait
queue: at most ``max_waiters`` threads (default ``2 * size``) may park for
a connection, and the next acquire fails fast with
:class:`PoolExhaustedError` carrying the :class:`PoolStats` snapshot taken
at rejection time.  Closing a pool with connections still checked out
fails loudly; ``close(force=True)`` is the emergency teardown and closes
the checked-out clones too (abandoned engine handles must not leak).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Deque, Dict, Iterator, List, Optional

from ..errors import StorageError
from ..obs.events import EventLog, POOL_CLONE_REPLACED
from ..obs.trace import current_span
from ..replica.changeset import MutationLog
from ..storage.backends import StorageBackend


@dataclass(frozen=True)
class PoolStats:
    """A snapshot of pool activity, taken under the pool lock."""

    size: int
    created: int
    in_use: int
    checkouts: int
    peak_in_use: int
    wait_count: int
    #: Threads currently parked in the wait queue.
    waiting: int = 0
    #: Acquires rejected because the wait queue was already full.
    rejections: int = 0
    #: Checkouts/checkins that replayed a mutation-log tail onto a clone.
    catchups: int = 0
    #: Total log entries replayed across those catch-ups.
    entries_replayed: int = 0
    #: Clones that fell below the log's compaction floor and were rebuilt
    #: from the template instead of failing the checkout.
    stale_rebuilds: int = 0
    #: Identifies the pool in per-shard breakdowns (e.g. ``"shard-2"``).
    label: str = ""


class PoolExhaustedError(StorageError):
    """Raised when an acquire is rejected or times out; carries the stats.

    :attr:`stats` is the :class:`PoolStats` snapshot taken at rejection
    time, so admission-control callers can report *why* the pool was full
    (in-use count, queue depth) without a second call racing the state.
    """

    def __init__(self, message: str, stats: PoolStats):
        super().__init__(f"{message} [{stats}]")
        self.stats = stats


class ConnectionPool:
    """Bounded checkout/checkin pool of backend clones.

    The *template* backend stays owned by the caller (typically the
    executor that built it); the pool owns only the clones it creates and
    closes them in :meth:`close`.

    Admission control: at most *max_waiters* threads may queue for a
    connection (default ``2 * size``).  An acquire arriving on a full
    queue fails immediately with :class:`PoolExhaustedError` instead of
    piling up behind a timeout — under overload, shedding the excess
    request at once beats making every client wait out the deadline.
    """

    def __init__(
        self,
        template: StorageBackend,
        size: int = 4,
        max_waiters: Optional[int] = None,
        label: str = "",
        mutation_log: Optional[MutationLog] = None,
        events: Optional[EventLog] = None,
    ):
        if size < 1:
            raise StorageError(f"connection pool needs size >= 1, got {size}")
        if max_waiters is None:
            max_waiters = 2 * size
        if max_waiters < 0:
            raise StorageError(f"max_waiters must be >= 0, got {max_waiters}")
        self.template = template
        self.size = size
        self.max_waiters = max_waiters
        self.label = label
        # With a mutation log attached, snapshot clones replay its tail at
        # checkout/checkin; clones that share storage with the template
        # (clone_is_snapshot False) see committed writes directly.  A
        # template mixing both kinds of children could do neither — its
        # snapshot clones would go stale without replay, while its shared
        # clones would double-apply with it — so it is rejected up front.
        if mutation_log is not None and template.has_mixed_snapshot_children:
            raise StorageError(
                "cannot attach a mutation log: the template backend mixes "
                "snapshot-cloning and shared-storage children (e.g. a "
                "file-backed SQLite child among memory children); use a "
                "uniform child layout for live updates"
            )
        self.mutation_log = mutation_log
        #: Optional structured event log clone replacements are recorded to.
        self.events = events
        self._replay = mutation_log is not None and template.clone_is_snapshot
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._all: List[StorageBackend] = []
        clone_lsns: List[int] = []
        try:
            for _ in range(size):
                # Stamp each clone with the log LSN observed immediately
                # *before* its clone() call.  A single post-loop read would
                # stamp every clone with the final head — so a write landing
                # while the loop runs (after clone i, before the read) would
                # be marked applied on clone i without ever reaching it: a
                # silently stale connection.  The pre-clone stamp errs the
                # other way — a write racing the clone itself may be
                # replayed onto a clone that already holds it — which is
                # bounded to that one in-flight write and, unlike the lost
                # update, never invents a connection that lies about its
                # LSN.
                clone_lsns.append(
                    mutation_log.lsn if mutation_log is not None else 0
                )
                self._all.append(template.clone())
        except Exception:
            # Don't leak the clones that did come up when a later one fails.
            for backend in self._all:
                if not backend.closed:
                    backend.close()
            raise
        self._clone_lsn: Dict[int, int] = {
            id(backend): lsn for backend, lsn in zip(self._all, clone_lsns)
        }
        self._idle: Deque[StorageBackend] = deque(self._all)
        self._in_use = 0
        self._checkouts = 0
        self._peak_in_use = 0
        self._wait_count = 0
        self._waiting = 0
        self._rejections = 0
        self._catchups = 0
        self._entries_replayed = 0
        self._stale_rebuilds = 0
        self._closed = False

    # ------------------------------------------------------------------
    def acquire(
        self, timeout: Optional[float] = None, min_lsn: Optional[int] = None
    ) -> StorageBackend:
        """Check a connection out, queueing briefly while the pool is busy.

        With a mutation log attached, the clone is caught up to the log
        head before it is handed out, so the caller never reads data older
        than the last committed write; *min_lsn* makes that read-your-
        writes barrier explicit — the call fails with
        :class:`StorageError` if the synced clone is still behind it
        (which indicates a bug, not load).

        Raises :class:`StorageError` when the pool is closed, and
        :class:`PoolExhaustedError` — with the :class:`PoolStats` snapshot
        attached — when the bounded wait queue is already full
        (*max_waiters* threads parked) or when *timeout* seconds elapse
        without a connection becoming free.  The timeout is a deadline for
        the whole call: being woken up and losing the idle connection to
        another thread does not restart the clock.
        """
        span = current_span().child("pool.acquire", pool=self.label or "pool")
        with span:
            backend = self._acquire(timeout, min_lsn)
            if self._replay:
                span.annotate(lsn=self.connection_lsn(backend))
            return backend

    def _acquire(
        self, timeout: Optional[float], min_lsn: Optional[int]
    ) -> StorageBackend:
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._available:
            waited = False
            try:
                while True:
                    if self._closed:
                        raise StorageError("cannot acquire from a closed pool")
                    if self._idle:
                        backend = self._idle.pop()
                        break
                    if not waited:
                        if self._waiting >= self.max_waiters:
                            self._rejections += 1
                            raise PoolExhaustedError(
                                f"connection pool exhausted: {self._in_use} "
                                f"connection(s) in use and {self._waiting} "
                                f"waiter(s) already queued "
                                f"(max_waiters={self.max_waiters})",
                                self._stats_locked(),
                            )
                        waited = True
                        self._wait_count += 1
                        self._waiting += 1
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            raise PoolExhaustedError(
                                f"timed out after {timeout}s waiting for a "
                                f"pooled connection (size={self.size})",
                                self._stats_locked(),
                            )
                    self._available.wait(timeout=remaining)
            finally:
                if waited:
                    self._waiting -= 1
            self._in_use += 1
            self._checkouts += 1
            self._peak_in_use = max(self._peak_in_use, self._in_use)
        # Catch-up replay runs outside the pool lock: only this thread
        # holds the clone, and other checkouts must not wait behind it.
        # _sync may hand back a different (rebuilt) connection when this
        # one fell below the log's compaction floor.
        try:
            backend = self._sync(backend)
            if min_lsn is not None and self._replay:
                applied = self._clone_lsn.get(id(backend), 0)
                if applied < min_lsn:
                    raise StorageError(
                        f"read-your-writes barrier violated: connection at "
                        f"LSN {applied}, needed {min_lsn}"
                    )
        except Exception:
            self._discard(backend)
            raise
        return backend

    def _sync(self, backend: StorageBackend) -> StorageBackend:
        """Replay the mutation-log tail this clone has not applied yet.

        Returns the connection to hand out — usually *backend* itself, but
        a clone whose applied LSN fell below the log's compaction floor
        (compaction outran it while it sat checked out or idle) can no
        longer catch up incrementally; instead of failing the checkout
        forever, it is rebuilt from the template (:meth:`_rebuild_stale`)
        and the fresh clone is returned.
        """
        if not self._replay:
            return backend
        log = self.mutation_log
        # Two attempts: the floor can advance between the staleness check
        # and the tail read (another checkin compacting concurrently); one
        # rebuild re-stamps at the then-current head, the retry reads the
        # tail from there.  A second failure is a real fault and raises.
        for attempt in (0, 1):
            applied = self._clone_lsn.get(id(backend), 0)
            if applied < log.floor:
                backend = self._rebuild_stale(backend)
                applied = self._clone_lsn.get(id(backend), 0)
            head = log.lsn
            if applied >= head:
                return backend
            try:
                entries = log.entries_since(applied)
            except StorageError:
                if attempt == 0:
                    continue
                raise
            break
        with current_span().child(
            "pool.catchup", pool=self.label or "pool", from_lsn=applied
        ) as span:
            for entry in entries:
                backend.apply(entry.changeset)
                applied = entry.lsn
            span.annotate(entries=len(entries), to_lsn=applied)
        with self._lock:
            self._clone_lsn[id(backend)] = applied
            self._catchups += 1
            self._entries_replayed += len(entries)
        return backend

    def _rebuild_stale(self, backend: StorageBackend) -> StorageBackend:
        """Replace a below-the-floor clone with a fresh template clone.

        The caller holds *backend* checked out, so swapping it for a new
        clone is private to this thread: the replacement inherits the
        checkout (``in_use`` is untouched) and the stale clone is closed.
        The same pre-clone LSN stamping as pool construction applies.
        """
        lsn = self.mutation_log.lsn
        replacement = self.template.clone()
        with self._lock:
            self._clone_lsn.pop(id(backend), None)
            if backend in self._all:
                self._all.remove(backend)
            self._all.append(replacement)
            self._clone_lsn[id(replacement)] = lsn
            self._stale_rebuilds += 1
        if not backend.closed:
            backend.close()
        if self.events is not None:
            self.events.record(
                POOL_CLONE_REPLACED,
                pool=self.label or "pool",
                replaced=True,
                reason="stale",
                remaining=len(self._all),
            )
        return replacement

    def _discard(self, backend: StorageBackend) -> None:
        """Drop a clone whose state is no longer trustworthy (failed replay).

        A replacement is cloned from the template (which always holds the
        log head, so the fresh clone starts fully caught up).  If the
        template cannot be cloned either and the last connection is gone,
        the pool closes itself so subsequent acquires fail loudly instead
        of parking until timeout on a pool that can never serve them.
        """
        replacement: Optional[StorageBackend] = None
        replacement_lsn = 0
        try:
            # Pre-clone stamping, as in the constructor: reading the head
            # after the clone would mark writes that landed mid-clone as
            # applied when the clone may have missed them.
            if self.mutation_log is not None:
                replacement_lsn = self.mutation_log.lsn
            replacement = self.template.clone()
        except Exception:
            replacement = None
        adopted = False
        with self._available:
            self._in_use -= 1
            self._clone_lsn.pop(id(backend), None)
            if backend in self._all:
                self._all.remove(backend)
            if replacement is not None and not self._closed:
                self._all.append(replacement)
                self._clone_lsn[id(replacement)] = replacement_lsn
                self._idle.append(replacement)
                adopted = True
            elif not self._all and not self._closed:
                self._closed = True
            self._available.notify()
            remaining = len(self._all)
        if replacement is not None and not adopted and not replacement.closed:
            replacement.close()
        if not backend.closed:
            backend.close()
        if self.events is not None:
            self.events.record(
                POOL_CLONE_REPLACED,
                pool=self.label or "pool",
                replaced=adopted,
                remaining=remaining,
            )

    def connection_lsn(self, backend: StorageBackend) -> int:
        """The mutation-log LSN a checked-out connection has applied."""
        with self._lock:
            return self._clone_lsn.get(id(backend), 0)

    def release(self, backend: StorageBackend) -> None:
        """Return a checked-out connection to the pool.

        With a mutation log attached, the clone is caught up on checkin
        too (cheap when nothing was written), which both amortizes replay
        work off the checkout path and lets the log compact entries every
        clone has consumed.
        """
        if self._replay and not self._closed and not backend.closed:
            try:
                backend = self._sync(backend)
            except Exception:
                self._discard(backend)
                raise
        with self._available:
            self._in_use -= 1
            if self._closed:
                if not backend.closed:
                    backend.close()
                return
            self._idle.append(backend)
            self._available.notify()
        if self._replay:
            with self._lock:
                floor = min(self._clone_lsn.values(), default=0)
            self.mutation_log.compact(floor)

    @contextmanager
    def connection(
        self, timeout: Optional[float] = None, min_lsn: Optional[int] = None
    ) -> Iterator[StorageBackend]:
        """``with pool.connection() as backend: ...`` checkout/checkin."""
        backend = self.acquire(timeout=timeout, min_lsn=min_lsn)
        try:
            yield backend
        finally:
            self.release(backend)

    # ------------------------------------------------------------------
    @property
    def closed(self) -> bool:
        return self._closed

    def _stats_locked(self) -> PoolStats:
        return PoolStats(
            size=self.size,
            created=len(self._all),
            in_use=self._in_use,
            checkouts=self._checkouts,
            peak_in_use=self._peak_in_use,
            wait_count=self._wait_count,
            waiting=self._waiting,
            rejections=self._rejections,
            catchups=self._catchups,
            entries_replayed=self._entries_replayed,
            stale_rebuilds=self._stale_rebuilds,
            label=self.label,
        )

    def stats(self) -> PoolStats:
        with self._lock:
            return self._stats_locked()

    def close(self, force: bool = False) -> None:
        """Close every pooled clone.

        Closing while connections are still checked out is a bug in the
        caller's shutdown ordering and fails loudly with
        :class:`StorageError` (nothing is closed); pass ``force=True`` for
        emergency teardown, which closes the checked-out clones too —
        abandoned checkouts must not leak engine handles (SQLite
        connections), and a racing holder finds its connection dead
        rather than the process finding a leak.  Idempotent once it
        succeeds (unlike backend ``close``): a service shutting down must
        be able to run its teardown twice.  The template backend is not
        touched.
        """
        with self._available:
            if self._closed:
                return
            if self._in_use and not force:
                raise StorageError(
                    f"cannot close pool: {self._in_use} connection(s) still "
                    "checked out (release them first, or close(force=True) "
                    f"to abandon them) [{self._stats_locked()}]"
                )
            self._closed = True
            # Forced teardown sweeps every clone ever created, including
            # the checked-out ones; the clean path closes only the idle
            # set (in_use == 0 implies they are the same).  Closing under
            # the pool lock keeps a racing release() from double-closing.
            doomed = list(self._all) if force else list(self._idle)
            self._idle.clear()
            self._available.notify_all()
            for backend in doomed:
                if not backend.closed:
                    backend.close()

    def __enter__(self) -> "ConnectionPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
