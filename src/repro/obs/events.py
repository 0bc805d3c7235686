"""The structured event log: state transitions that used to happen silently.

Counters say *how often*, traces say *where the time went* — the event
log says *what happened to the deployment*: a replica got fenced after a
failed write, a read failed over to the next copy, the pool replaced a
broken clone, drift triggered a statistics re-collection, a rebalance
staged/copied/cut over.  Each :class:`Event` carries a dense per-log
sequence number (so ordering is assertable), a monotonic timestamp, the
mutation-log LSN at which it happened (stamped automatically through the
owning service's ``lsn_source`` when the recorder itself has none), and
free-form structured details.

The log is a bounded ring (default 1024 events): production services run
forever and an unbounded event history is a slow leak, while the most
recent window is what an operator pages through.  ``events()`` filters by
kind, ``to_dicts()``/``to_json()`` export for shipping.  Recording never
raises into the serving path: an event that cannot be assembled (e.g. the
``lsn_source`` callback failing mid-teardown) is dropped and counted in
:attr:`EventLog.dropped`, surfaced through service stats and the
``mars_events_dropped_total`` metric.
"""

from __future__ import annotations

import json
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from .timer import now

# Event kinds recorded by the built-in instrumentation.  Free-form kinds
# are allowed; these constants keep service + tests + docs in agreement.
REPLICA_FENCED = "replica.fenced"
REPLICA_FAILOVER = "replica.failover"
POOL_CLONE_REPLACED = "pool.clone_replaced"
STATISTICS_REFRESH = "statistics.refresh"
REBALANCE_STAGE = "rebalance.stage"
REBALANCE_COPY = "rebalance.copy"
REBALANCE_REPLAY = "rebalance.replay"
REBALANCE_CUTOVER = "rebalance.cutover"
SLOW_QUERY = "query.slow"
REPLICA_REPAIRED = "replica.repaired"
LOG_RECOVERED = "log.recovered"
LOG_CHECKPOINT = "log.checkpoint"
# Plan-store load outcomes (values mirrored in ``repro.plan.store``,
# which cannot import this package).
PLAN_LOADED = "plan_store.loaded"
PLAN_STALE = "plan_store.stale"
PLAN_CORRUPT = "plan_store.corrupt"
# A compile whose backchase stopped at its ``max_inspected`` cap.
COMPILE_TRUNCATED = "compile.truncated"


@dataclass(frozen=True)
class Event:
    """One recorded state transition."""

    #: Dense per-log sequence number (1, 2, 3, ...): the total order.
    sequence: int
    kind: str
    #: Monotonic seconds (``obs.timer.now()``) at record time.
    timestamp: float
    #: Mutation-log LSN the deployment had reached, when known.
    lsn: Optional[int] = None
    details: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {
            "sequence": self.sequence,
            "kind": self.kind,
            "timestamp": self.timestamp,
        }
        if self.lsn is not None:
            entry["lsn"] = self.lsn
        if self.details:
            entry["details"] = dict(self.details)
        return entry


class EventLog:
    """A thread-safe bounded ring of :class:`Event` records.

    *lsn_source* — typically set by the publishing service to a callable
    returning its current write LSN — stamps every event recorded without
    an explicit ``lsn``, so even events raised deep inside a backend
    (fencing, failover) are positioned against the write history.
    """

    def __init__(
        self,
        maxlen: int = 1024,
        lsn_source: Optional[Callable[[], int]] = None,
    ):
        if maxlen < 1:
            raise ValueError(f"event log needs maxlen >= 1, got {maxlen}")
        self._lock = threading.Lock()
        self._events: Deque[Event] = deque(maxlen=maxlen)
        self._sequence = 0
        self._dropped = 0
        self._recorded_per_kind: Dict[str, int] = {}
        self.lsn_source = lsn_source

    def record(
        self, kind: str, lsn: Optional[int] = None, **details: Any
    ) -> Optional[Event]:
        """Append one event; returns the stamped record.

        Recording must never take the serving path down: a failure anywhere
        while assembling the record (most likely the ``lsn_source``
        callback raising mid-teardown) drops the event — but *counted*, in
        :attr:`dropped`, never silently.  Returns ``None`` for a dropped
        event.
        """
        try:
            if lsn is None and self.lsn_source is not None:
                lsn = self.lsn_source()
            timestamp = now()
        except Exception:
            with self._lock:
                self._dropped += 1
            return None
        with self._lock:
            self._sequence += 1
            event = Event(
                sequence=self._sequence,
                kind=kind,
                timestamp=timestamp,
                lsn=lsn,
                details=details,
            )
            self._events.append(event)
            self._recorded_per_kind[kind] = (
                self._recorded_per_kind.get(kind, 0) + 1
            )
            return event

    @property
    def dropped(self) -> int:
        """Events discarded because recording them failed (lifetime count)."""
        with self._lock:
            return self._dropped

    def events(self, kind: Optional[str] = None) -> Tuple[Event, ...]:
        """The retained events in order, optionally filtered by *kind*."""
        with self._lock:
            retained = tuple(self._events)
        if kind is None:
            return retained
        return tuple(event for event in retained if event.kind == kind)

    def tail(self, n: int, kind: Optional[str] = None) -> Tuple[Event, ...]:
        """The newest *n* retained events, oldest first.

        The bounded accessor the ``/events`` endpoint (and tests) read
        instead of reaching into the ring: the snapshot is taken under the
        lock, the filter and slice outside it.  ``n <= 0`` returns
        nothing; *kind* filters before the count is applied, so asking for
        the last 5 ``replica.fenced`` events does what it says.
        """
        if n <= 0:
            return ()
        retained = self.events(kind)
        return retained[-n:]

    def counts(self) -> Dict[str, int]:
        """Lifetime events recorded per kind (survives ring eviction)."""
        with self._lock:
            return dict(self._recorded_per_kind)

    def count(self, kind: Optional[str] = None) -> int:
        """Events recorded over the log's lifetime (not just retained)."""
        with self._lock:
            if kind is None:
                return self._sequence
            return self._recorded_per_kind.get(kind, 0)

    def kinds(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._recorded_per_kind))

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def to_dicts(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        return [event.to_dict() for event in self.events(kind)]

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dicts(), indent=indent, default=repr)
