"""The thread-safe publishing service: MARS behind a ``publish()`` call.

This is the piece that turns the reproduction from a library into a
servable system.  A :class:`PublishingService` owns

* one :class:`~repro.core.system.MarsSystem` (the C&B reformulation
  engine, serialized behind a lock — it is not reentrant) with an attached
  :class:`~repro.serve.cache.PlanCache`, so a repeated client query costs a
  cache lookup instead of a chase;
* one :class:`~repro.core.executor.MarsExecutor` that builds the
  proprietary instance data into a *template* backend exactly once;
* one tuple of *storage units*, as the template's
  :meth:`~repro.storage.backends.StorageBackend.storage_units` declares
  them (the template itself, or one unit per shard): each pairs its store
  with a :class:`~repro.replica.MutationLog` (durable under ``log_dir``)
  and a :class:`~repro.serve.pool.ConnectionPool` of clones, so many
  threads execute plans without sharing a SQLite connection.

Which kind of backend holds the data is the backend's business: recovery,
checkpoint, repair, health, stats, teardown and both request paths walk
the unit tuple.  ``publish(query)`` — the batch of one of
``publish_many`` — does cache-aware reformulation, has the template route
the plan (the cost-ranked best reformulation), checks out the units the
route names, runs the plan there and returns the rows;
``update(changeset)`` has the template route the change set and applies
and logs each piece on its unit.

What a served request leaves behind is decided in one place: every
publish, every query of a batch, every ``explain()`` run
and every update is described once, as a
:class:`~repro.obs.request.RequestRecord`, and :meth:`PublishingService._emit`
hands that record to the sinks — metrics, SLO, cost feedback, slow-query
log, trace buffer, profile buffer and, last and raising, the audit log.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import count
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from ..core.configuration import MarsConfiguration
from ..core.executor import MarsExecutor
from ..core.reformulation import MarsReformulation
from ..core.system import MarsSystem
from ..errors import ReformulationError, StorageError
from ..logical.queries import ConjunctiveQuery
from ..plan import PlanStore, PlanStoreStats
from ..profile import EXECUTE, ProfileBuffer, QueryProfile
from ..obs import (
    AuditLog,
    AuditStats,
    COMPILE_TRUNCATED,
    CheckResult,
    CostFeedback,
    DEGRADED,
    EventLog,
    FingerprintFeedback,
    HEALTHY,
    HealthCheck,
    HealthReport,
    LOG_CHECKPOINT,
    LOG_RECOVERED,
    MetricsRegistry,
    NULL_TRACE,
    REPLICA_FAILOVER,
    REPLICA_FENCED,
    RequestRecord,
    SLOW_QUERY,
    SLOReport,
    SLOTracker,
    STATISTICS_REFRESH,
    SampledRing,
    TraceBuffer,
    Tracer,
    UNHEALTHY,
    current_span,
    phase_breakdown,
    timer,
)
from ..replica import (
    ChangeSet,
    DurableMutationLog,
    MutationLog,
    RebalanceReport,
    Rebalancer,
    RepairLoop,
    RepairReport,
    ReplicaRepairer,
    ReplicaStats,
    restore_snapshot,
)
from ..shard import RouterStats
from ..storage.backends.base import StorageBackend, create_portable_backend
from ..xbind.query import XBindQuery
from .cache import CacheStats, PlanCache
from .pool import ConnectionPool, PoolStats

if TYPE_CHECKING:
    from ..obs.http import AdminServer

Row = Tuple[object, ...]


def _setting(value, default):
    """A constructor argument, or — left ``None`` — the configuration's value."""
    return default if value is None else value


class _Unit(NamedTuple):
    """One independently pooled-and-logged store of the deployment."""

    #: ``service`` / ``shard-i``: names the pool and the durable log directory.
    label: str
    store: StorageBackend
    log: MutationLog
    pool: ConnectionPool


class _Flight:
    """One query on its way through :meth:`PublishingService._serve`: the
    scratch its :class:`RequestRecord` is built from."""

    __slots__ = ("query", "trace", "reformulation", "plan", "rows", "route",
                 "coarse")

    def __init__(self, query: XBindQuery, trace):
        self.query = query
        #: The request's execution tree (its trace view; profiled or not).
        self.trace = trace
        #: Stopwatch readings of the two halves of a publish: the phase
        #: breakdown of an untraced request (a traced one reads its spans).
        self.coarse: Dict[str, float] = {}


class _PublishGate:
    """A readers/writer gate: publishes and updates run concurrently
    (readers), the rebalance cutover runs alone (writer).

    Writer-preferring: once a cutover is waiting, new reader entries park
    behind it, so a steady publish stream cannot starve the swap.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._turnstile = threading.Condition(self._lock)
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._turnstile:
            while self._writer or self._writers_waiting:
                self._turnstile.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._turnstile:
                self._readers -= 1
                if not self._readers:
                    self._turnstile.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._turnstile:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._turnstile.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True
        try:
            yield
        finally:
            with self._turnstile:
                self._writer = False
                self._turnstile.notify_all()


@dataclass(frozen=True)
class ServiceStats:
    """One snapshot of service, plan-cache and pool counters.

    On a sharded deployment :attr:`pool` is the aggregate across shards,
    :attr:`shard_pools` breaks it down per shard (labelled ``shard-i``) and
    :attr:`router` reports the routing outcomes (how many queries were
    pruned to a single shard, scattered, or gathered).  The aggregate's
    ``peak_in_use`` sums per-shard peaks that may have occurred at
    different moments — it is an upper bound on the true concurrent peak,
    not an observation of one; size pools from the per-shard numbers.
    """

    queries_served: int
    reformulations_computed: int
    cache: CacheStats
    pool: PoolStats
    shard_pools: Tuple[PoolStats, ...] = ()
    router: Optional[RouterStats] = None
    #: Change sets applied through :meth:`PublishingService.update`.
    updates_applied: int = 0
    #: Highest mutation-log LSN a completed update reached.
    last_write_lsn: int = 0
    #: Statistics re-collections triggered by row-count drift.
    statistics_refreshes: int = 0
    #: Completed online rebalances (shard splits/merges).
    rebalances: int = 0
    #: Replica counters of the template backend on a replicated
    #: deployment (``None`` elsewhere).
    replicas: Optional[ReplicaStats] = None
    #: Lifetime read failovers across the template *and* every pooled
    #: clone (counted through the service event log).
    replica_failovers: int = 0
    #: Lifetime replica fences across the template and pooled clones.
    replica_fenced: int = 0
    #: Dead replicas re-provisioned back to live copies
    #: (:meth:`PublishingService.repair_replicas`).
    replica_repairs: int = 0
    #: Events the event log dropped because recording them failed.
    events_dropped: int = 0
    #: Durable mutation-log segment files on disk, summed over the
    #: service's logs (0 on in-memory deployments).
    log_segments: int = 0
    #: Durable mutation-log bytes on disk.
    log_size_bytes: int = 0
    #: When the service came up (ISO-8601, UTC).
    started_at: str = ""
    #: Seconds since the service came up (monotonic).
    uptime_seconds: float = 0.0
    #: The serving package's version string.
    version: str = ""
    #: Per-query SLO standings (empty when SLO tracking is off).
    slo: Tuple[SLOReport, ...] = ()
    #: Audit-log shape (``None`` when the audit log is off).
    audit: Optional[AuditStats] = None
    #: Reformulations served by decoding a plan-store artifact (no C&B
    #: engine entry).
    plans_loaded: int = 0
    #: Plan-store counters (``None`` when no store is attached).
    plan_store: Optional[PlanStoreStats] = None

    def snapshot(self) -> Dict[str, object]:
        """The stats as one JSON-able dict (the operator-facing view).

        Surfaces the numbers operators act on directly, including the
        router's ``cost_overrides`` (cost-based decisions that overturned
        the rule-based routing default) and the replica failover/fence
        counts.
        """
        data: Dict[str, object] = {
            "started_at": self.started_at,
            "uptime_seconds": self.uptime_seconds,
            "version": self.version,
            "queries_served": self.queries_served,
            "reformulations_computed": self.reformulations_computed,
            "plans_loaded": self.plans_loaded,
            "updates_applied": self.updates_applied,
            "last_write_lsn": self.last_write_lsn,
            "statistics_refreshes": self.statistics_refreshes,
            "rebalances": self.rebalances,
            "replica_failovers": self.replica_failovers,
            "replica_fenced": self.replica_fenced,
            "replica_repairs": self.replica_repairs,
            "events_dropped": self.events_dropped,
            "log_segments": self.log_segments,
            "log_size_bytes": self.log_size_bytes,
            "cache": {
                "entries": self.cache.current_size,
                "hits": self.cache.hits,
                "misses": self.cache.misses,
                "hit_rate": self.cache.hit_rate,
                "evictions": self.cache.evictions,
                "invalidations": self.cache.invalidations,
            },
            "pool": {
                "size": self.pool.size,
                "in_use": self.pool.in_use,
                "checkouts": self.pool.checkouts,
                "peak_in_use": self.pool.peak_in_use,
                "rejections": self.pool.rejections,
                "catchups": self.pool.catchups,
                "stale_rebuilds": self.pool.stale_rebuilds,
            },
        }
        if self.router is not None:
            data["router"] = {
                "queries": self.router.queries,
                "single_shard": self.router.single_shard,
                "scatter": self.router.scatter,
                "gather": self.router.gather,
                "cost_based": self.router.cost_based,
                "cost_overrides": self.router.cost_overrides,
            }
        if self.replicas is not None:
            data["replicas"] = {
                "replica_count": self.replicas.replica_count,
                "live_replicas": self.replicas.live_replicas,
                "failovers": self.replicas.failovers,
                "fenced": self.replicas.fenced,
                "repaired": self.replicas.repaired,
                "selector": self.replicas.selector,
            }
        if self.slo:
            data["slo"] = [entry.to_dict() for entry in self.slo]
        if self.audit is not None:
            data["audit"] = self.audit.to_dict()
        if self.plan_store is not None:
            data["plan_store"] = self.plan_store.to_dict()
        return data


class PublishingService:
    """Serve XBind queries concurrently from pooled proprietary storage.

    Parameters default from the configuration (``backend``, ``pool_size``,
    ``plan_cache_size``); pass *system* to reuse an already-built
    :class:`MarsSystem` (its plan cache is adopted, or one is attached).
    The service is safe to share between threads; close it (or use it as a
    context manager) to release the pool and the template backend.
    """

    def __init__(
        self,
        configuration: MarsConfiguration,
        backend: Optional[object] = None,
        pool_size: Optional[int] = None,
        cache_size: Optional[int] = None,
        plan_cache: Optional[PlanCache] = None,
        system: Optional[MarsSystem] = None,
        checkout_timeout: Optional[float] = 30.0,
        max_waiters: Optional[int] = None,
        refresh_statistics: bool = True,
        drift_threshold: Optional[float] = 0.2,
        tracing: bool = True,
        slow_query_seconds: Optional[float] = None,
        slow_query_sample: int = 1,
        log_dir: Optional[str] = None,
        plan_dir: Optional[str] = None,
        log_fsync: Optional[str] = None,
        log_segment_bytes: Optional[int] = None,
        auto_repair_interval: Optional[float] = None,
        admin_port: Optional[int] = None,
        admin_host: str = "127.0.0.1",
        audit_dir: Optional[str] = None,
        slo_target_p99: Optional[float] = None,
        profile_sample: int = 0,
        profile_buffer_size: int = 64,
    ):
        if profile_sample < 0:
            raise ValueError(
                f"profile_sample must be >= 0 (0 disables profiling), "
                f"got {profile_sample}"
            )
        self.configuration = configuration
        self.checkout_timeout = checkout_timeout
        self.drift_threshold = drift_threshold
        # Observability: the tracer hands each publish/update a span tree
        # (the null trace when disabled), the registry is the common
        # metrics substrate, the event log records state transitions
        # stamped with the current write LSN, and the cost-feedback
        # recorder closes the estimate-vs-actual loop.
        self.tracer = Tracer(enabled=tracing)
        self.registry = MetricsRegistry()
        self.events = EventLog(lsn_source=lambda: self._write_lsn)
        self.cost_feedback = CostFeedback()
        #: The ring of completed span trees served on /traces/recent.
        self.trace_buffer = TraceBuffer()
        #: Every served request takes the next id; it joins the request's
        #: slow-query event, trace, profile and audit line.
        self._request_ids = count(1)
        #: Per-operator query profiles: with ``profile_sample`` = N > 0,
        #: one publish in N executes with a structured profile attached
        #: and lands in this ring (served on /profiles/recent and
        #: /profiles/worst).  0 disables sampling — ``explain()`` still
        #: profiles its one forced publish.
        self.profile_buffer: Optional[ProfileBuffer] = (
            ProfileBuffer(maxlen=profile_buffer_size, sample=profile_sample)
            if profile_sample > 0
            else None
        )
        #: The :class:`QueryProfile` of the most recent profiled publish.
        self.last_profile: Optional[QueryProfile] = None
        self._started_clock = timer()
        self.started_at = datetime.now(timezone.utc).isoformat()
        # Per-query latency objectives: a seconds budget (here or on the
        # configuration) turns error-budget tracking on.
        slo_target = _setting(slo_target_p99, configuration.slo_target_p99)
        self.slo: Optional[SLOTracker] = (
            SLOTracker(slo_target, window_seconds=configuration.slo_window_seconds)
            if slo_target is not None
            else None
        )
        #: Named health probes rolled up on /health; built-in checks are
        #: registered once storage exists (see _init_health), callers may
        #: register their own.
        self.health_checks = HealthCheck()
        # The pool probe's since-last-probe deltas.
        self._probe_lock = threading.Lock()
        self._health_pool_rejections = 0
        self._health_pool_stale_rebuilds = 0
        #: Publishes at or over this many seconds enter the slow-query
        #: log (``None`` disables it); of those, every *slow_query_sample*-th
        #: is recorded (1 records them all).
        self.slow_query_seconds = slow_query_seconds
        self._slow_sampler = SampledRing("slow_query", sample=slow_query_sample)
        #: The span tree of the most recent traced publish/update.
        self.last_trace = NULL_TRACE
        self._write_lsn = 0
        # Publishes pass the gate as readers; the rebalance cutover, and
        # updates to a template split into units, as the exclusive writer.
        self._gate = _PublishGate()
        # The template backend must be usable from whichever thread calls
        # update() or rebalance(), so backends the service builds itself
        # are created thread-portable (an injected instance is trusted to
        # be whatever the caller needs, and stays the caller's to close).
        self._template_owned = backend is None or isinstance(backend, (str, type))
        if self._template_owned:
            backend = create_portable_backend(
                configuration.backend if backend is None else backend,
                configuration.create_backend,
            )
        if system is None:
            system = MarsSystem(configuration)
        if system.plan_cache is None:
            if plan_cache is None:
                plan_cache = PlanCache(
                    maxsize=_setting(cache_size, configuration.plan_cache_size)
                )
            system.plan_cache = plan_cache
        self.system = system
        self.plan_cache: PlanCache = system.plan_cache
        # Persistent plan artifacts: with a plan directory configured (the
        # parameter, the configuration's plan_dir, or MARS_PLAN_DIR), a
        # disk-backed store is attached to the system — compiled plans
        # become durable artifacts and a restarted service serves them
        # without re-entering the C&B engine.  A store the caller already
        # attached to the system is adopted; either way its load outcomes
        # are recorded on this service's event log.
        plan_path = _setting(plan_dir, configuration.plan_dir)
        if system.plan_store is None and plan_path is not None:
            system.plan_store = PlanStore(plan_path)
        self.plan_store: Optional[PlanStore] = system.plan_store
        if self.plan_store is not None and self.plan_store.events is None:
            self.plan_store.events = self.events
        # Build the instance data once, into the template backend the pools
        # will clone from.
        self.executor = MarsExecutor(configuration, backend=backend)
        # The write path: one mutation log per storage unit, replayed onto
        # pooled snapshot clones at checkout/checkin instead of rebuilding
        # the service after writes.  With a log directory configured the
        # logs spool to append-only segment files, and updates a previous
        # incarnation acknowledged are recovered into the fresh template
        # *before* statistics are measured or any clone is taken.
        self._log_dir = _setting(log_dir, configuration.log_dir)
        self._log_fsync = _setting(log_fsync, configuration.log_fsync)
        self._log_segment_bytes = _setting(
            log_segment_bytes, configuration.log_segment_bytes
        )
        self._durable = self._log_dir is not None
        self._pool_size = _setting(pool_size, configuration.pool_size)
        self._max_waiters = max_waiters
        logs: Optional[List[MutationLog]] = None
        try:
            if self._durable:
                logs = self._open_durable_logs()
            # Plan against measured statistics, not declarations.  The
            # executor measured every table when its build completed; this
            # refresh re-measures only what log recovery wrote since.
            # Skipped with refresh_statistics=False: the system keeps the
            # declared statistics.
            if refresh_statistics:
                system.attach_statistics(self.executor.collect_statistics())
            self._adopt_units(self._build_units(logs))
        except Exception:
            # Don't leak the template connection (or the durable log
            # handles) when pooling fails (bad size, unclonable backend).
            for log in logs or ():
                log.close()
            self._close_template()
            raise
        # The C&B engine mutates per-call state deep inside the chase; it is
        # correct but not reentrant, so reformulation is serialized.  Plan
        # execution — the per-request hot path — takes no service lock;
        # SQLite statements still step one at a time per process.
        self._reformulate_lock = threading.Lock()
        # Write-path state: updates serialize behind one lock.
        self._write_lock = threading.Lock()
        self._rebalance_lock = threading.Lock()
        self._rebalance_log: Optional[MutationLog] = None
        # Row-count drift accounting for the adaptive statistics trigger:
        # rows touched per relation since the last collection, compared
        # against the row counts that collection measured.
        self._drift_rows: Dict[str, float] = {}
        self._stats_rows: Dict[str, float] = {}
        self._reset_drift_baseline()
        self._init_metrics()
        self._closed = False
        # The failure detector: with an interval set, a daemon thread runs
        # repair_replicas() periodically, so a fenced/killed replica heals
        # back to K copies without an operator.
        self._repair_loop: Optional[RepairLoop] = None
        if auto_repair_interval is not None:
            self._repair_loop = RepairLoop(
                self._auto_repair_tick, interval=auto_repair_interval
            )
            self._repair_loop.start()
        # The operational tier comes up last, once everything it reports
        # on exists: the built-in health probes, the durable audit log of
        # acknowledged requests, and the admin HTTP endpoint.  A failure
        # here (unwritable audit directory, admin port in use) tears the
        # fully built service back down instead of leaking it.
        self.audit: Optional[AuditLog] = None
        self.admin: Optional[AdminServer] = None
        self._init_health()
        try:
            audit_path = _setting(audit_dir, configuration.audit_dir)
            if audit_path is not None:
                self.audit = AuditLog(
                    audit_path,
                    max_bytes=configuration.audit_max_bytes,
                    fsync=configuration.audit_fsync,
                )
            port = _setting(admin_port, configuration.admin_port)
            if port is not None:
                # Loaded only here: the HTTP server stack is a large import.
                from ..obs.http import AdminServer

                profiled = self.profile_buffer is not None
                self.admin = AdminServer(
                    port,
                    host=admin_host,
                    metrics_text=self.registry.render_prometheus,
                    stats_snapshot=lambda: self.stats().snapshot(),
                    health_report=self.health,
                    ready=lambda: not self._closed,
                    event_tail=self._event_tail,
                    trace_recent=self._trace_recent,
                    profiles_recent=self._profiles_recent if profiled else None,
                    profiles_worst=self._profiles_worst if profiled else None,
                )
                self.admin.start()
        except Exception:
            self.close(force=True)
            raise

    # ------------------------------------------------------------------
    # Durable mutation logs
    # ------------------------------------------------------------------
    def _open_durable_logs(self) -> List[MutationLog]:
        """Open (and recover from) the segment logs under ``log_dir``.

        Layout: one directory per storage unit, named by its label —
        ``<log_dir>/service`` when the template is its own unit,
        ``<log_dir>/shard-<i>`` on a sharded deployment.  A directory
        written by a different layout (other shard count, other topology)
        is rejected up front — replaying its entries through today's
        routing would scatter rows to the wrong fragments.
        """
        template = self.executor.backend
        if not template.clone_is_snapshot:
            raise StorageError(
                "a durable log directory requires snapshot-cloning engines "
                "(the template is rebuilt from the configuration at startup "
                "and recovered by replay; an engine persisting its own "
                "state, e.g. file-backed SQLite, would double-apply)"
            )
        base = Path(self._log_dir)
        base.mkdir(parents=True, exist_ok=True)
        units = template.storage_units()
        expected = sorted(label for label, _store in units)
        existing = sorted(
            entry.name for entry in base.iterdir() if entry.is_dir()
        )
        if existing and existing != expected:
            raise StorageError(
                f"log directory {base} was written by a different deployment "
                f"layout: found {existing}, this deployment needs "
                f"{expected}"
            )
        opened: List[MutationLog] = []
        try:
            for label, store in units:
                log = DurableMutationLog(
                    base / label,
                    fsync=self._log_fsync,
                    segment_max_bytes=self._log_segment_bytes,
                )
                opened.append(log)
                self._recover_log(log, store, label)
            template.units_written()
        except Exception:
            for log in opened:
                log.close()
            raise
        # Unit logs advance independently (an update only touches the
        # units it routes to), so the service-level write LSN restarts at
        # the furthest head: monotonic, though not necessarily dense
        # across the restart.
        self._write_lsn = max(log.lsn for log in opened)
        return opened

    def _recover_log(
        self, log: DurableMutationLog, backend: StorageBackend, label: str
    ) -> None:
        """Bring *backend* up to *log*'s head: snapshot restore + replay."""
        start = 0
        snapshot = log.load_checkpoint()
        if snapshot is not None:
            checkpoint_lsn, tables = snapshot
            restore_snapshot(backend, tables)
            start = checkpoint_lsn
        entries = log.entries_since(start)
        for entry in entries:
            backend.apply(entry.changeset)
        if snapshot is not None or entries or log.truncated_records:
            self.events.record(
                LOG_RECOVERED,
                lsn=log.lsn,
                log=label,
                checkpoint_lsn=log.checkpoint_lsn,
                entries=len(entries),
                truncated_records=log.truncated_records,
            )

    def _durable_logs(self) -> Tuple[DurableMutationLog, ...]:
        """The service's durable logs (empty on in-memory deployments)."""
        return tuple(unit.log for unit in self._units) if self._durable else ()

    def _init_metrics(self) -> None:
        """Register the service's metric families (idempotent per registry)."""
        registry = self.registry
        self._m_publishes = registry.counter(
            "mars_publishes_total", "publish() calls served"
        )
        self._m_publish_errors = registry.counter(
            "mars_publish_errors_total", "publish() calls that raised"
        )
        self._m_published_rows = registry.counter(
            "mars_published_rows_total", "rows returned by publish()"
        )
        self._m_publish_latency = registry.histogram(
            "mars_publish_latency_seconds", "publish() wall-clock seconds"
        )
        self._m_updates = registry.counter(
            "mars_updates_total", "change sets applied through update()"
        )
        self._m_update_latency = registry.histogram(
            "mars_update_latency_seconds", "update() wall-clock seconds"
        )
        self._m_reformulations = registry.counter(
            "mars_reformulations_total",
            "C&B reformulations computed (plan-cache misses)",
        )
        self._m_plans_loaded = registry.counter(
            "mars_plans_loaded_total",
            "reformulations served by decoding a plan-store artifact",
        )
        self._m_slow = registry.counter(
            "mars_slow_queries_total",
            "publishes at or over the slow-query threshold",
        )
        self._m_feedback = registry.counter(
            "mars_cost_feedback_samples_total",
            "estimate-vs-actual samples recorded",
        )
        self._m_profiles = registry.counter(
            "mars_profiles_recorded_total",
            "per-operator query profiles retained (sampled or forced)",
        )
        self._m_statistics_refreshes = registry.counter(
            "mars_statistics_refreshes_total",
            "statistics re-collections (drift, misestimation, rebalance)",
        )
        self._m_rebalances = registry.counter(
            "mars_rebalances_total", "completed online rebalances"
        )
        self._m_rebalance_latency = registry.histogram(
            "mars_rebalance_latency_seconds", "rebalance() wall-clock seconds"
        )
        self._m_repairs = registry.counter(
            "mars_replica_repairs_total",
            "dead replicas re-provisioned back to live copies",
        )
        # Export-time gauges bridging the *Stats snapshots (cache, pool,
        # router, replica) into the registry without a second counter on
        # any hot path: each gauge is declared once, next to how it reads
        # one stats() snapshot (``None`` leaves the series unset).
        buffer = self.profile_buffer
        gauges = [
            (registry.gauge("mars_plan_cache_entries", "plans currently cached"),
             lambda stats: stats.cache.current_size),
            (registry.gauge("mars_plan_cache_hit_ratio",
                            "lifetime plan-cache hit rate"),
             lambda stats: stats.cache.hit_rate),
            (registry.gauge("mars_plan_store_plans", "plan artifacts on disk"),
             lambda stats: stats.plan_store and stats.plan_store.artifacts),
            (registry.gauge("mars_plan_store_hits_total", "plan-store loads that hit"),
             lambda stats: stats.plan_store and stats.plan_store.hits),
            (registry.gauge("mars_plan_store_misses_total",
                            "plan-store loads that missed"),
             lambda stats: stats.plan_store and stats.plan_store.misses),
            (registry.gauge("mars_plan_store_writes_total", "plan artifacts written"),
             lambda stats: stats.plan_store and stats.plan_store.writes),
            (registry.gauge("mars_plan_store_corrupt_total",
                            "plan artifacts quarantined"),
             lambda stats: stats.plan_store and stats.plan_store.corrupt),
            (registry.gauge("mars_plan_store_invalidations_total",
                            "stale plan artifacts deleted"),
             lambda stats: stats.plan_store and stats.plan_store.invalidations),
            (registry.gauge("mars_pool_size_connections",
                            "pooled connections (aggregate)"),
             lambda stats: stats.pool.size),
            (registry.gauge("mars_pool_in_use_connections",
                            "connections checked out right now"),
             lambda stats: stats.pool.in_use),
            (registry.gauge("mars_pool_checkouts_total", "lifetime pool checkouts"),
             lambda stats: stats.pool.checkouts),
            (registry.gauge("mars_pool_catchups_total",
                            "checkouts/checkins that replayed a log tail"),
             lambda stats: stats.pool.catchups),
            (registry.gauge("mars_router_queries_total",
                            "queries the shard router decided"),
             lambda stats: stats.router and stats.router.queries),
            (registry.gauge(
                "mars_router_cost_overrides_total",
                "cost-based routing decisions that overturned the rule default"),
             lambda stats: stats.router and stats.router.cost_overrides),
            (registry.gauge("mars_live_replicas",
                            "replicas still serving on the template"),
             lambda stats: stats.replicas and stats.replicas.live_replicas),
            (registry.gauge("mars_replica_failovers_total",
                            "read failovers across template and pooled clones"),
             lambda stats: stats.replica_failovers),
            (registry.gauge("mars_replica_fenced_total",
                            "replicas fenced across template and pooled clones"),
             lambda stats: stats.replica_fenced),
            (registry.gauge("mars_write_lsn", "highest acknowledged mutation-log LSN"),
             lambda stats: stats.last_write_lsn),
            (registry.gauge("mars_log_segments",
                            "durable mutation-log segment files on disk (all logs)"),
             lambda stats: stats.log_segments),
            (registry.gauge("mars_log_size_bytes",
                            "durable mutation-log bytes on disk"),
             lambda stats: stats.log_size_bytes),
            (registry.gauge(
                "mars_events_dropped_total",
                "events the event log dropped because recording them failed"),
             lambda stats: stats.events_dropped),
            (registry.gauge("mars_health_status",
                            "aggregate health: 1 healthy, 0.5 degraded, 0 unhealthy"),
             lambda stats: self.health().value),
            (registry.gauge("mars_uptime_seconds", "seconds since the service came up"),
             lambda stats: stats.uptime_seconds),
            (registry.gauge("mars_profile_buffer_entries",
                            "query profiles currently buffered"),
             lambda stats: None if buffer is None else len(buffer)),
            (registry.gauge("mars_profile_worst_q_error_ratio",
                            "largest per-operator q-error across buffered profiles"),
             lambda stats: None if buffer is None else buffer.worst_q_error()),
            (registry.gauge("mars_audit_records_total",
                            "audit entries written this incarnation"),
             lambda stats: stats.audit and stats.audit.records),
            (registry.gauge("mars_audit_size_bytes", "active audit file bytes on disk"),
             lambda stats: stats.audit and stats.audit.active_bytes),
        ]
        # Per-query SLO series (labelled): the counters move on the publish
        # path, the standing gauges read one SLOReport each at export time.
        self._m_slo_requests = registry.counter(
            "mars_slo_requests_total",
            "publishes measured against the latency objective",
            labels=("query",),
        )
        self._m_slo_violations = registry.counter(
            "mars_slo_violations_total",
            "publishes that missed the latency objective",
            labels=("query",),
        )
        slo_gauges = [
            (registry.gauge("mars_slo_target_seconds",
                            "the per-query latency objective",
                            labels=("query",)),
             lambda entry: entry.target_p99),
            (registry.gauge("mars_slo_window_p99_seconds",
                            "observed p99 over the rolling SLO window",
                            labels=("query",)),
             lambda entry: entry.window_p99),
            (registry.gauge(
                "mars_slo_error_budget_burn_ratio",
                "window violation rate over the allowed rate (>1 is breaching)",
                labels=("query",)),
             lambda entry: entry.budget_burn),
        ]

        def collect() -> None:
            if self._closed:
                return
            try:
                stats = self.stats()
            except Exception:
                return
            for gauge, read in gauges:
                value = read(stats)
                if value is not None:
                    gauge.set(value)
            for entry in stats.slo:
                for gauge, read in slo_gauges:
                    gauge.labels(query=entry.key).set(read(entry))

        registry.add_collector(collect)

    # ------------------------------------------------------------------
    # Health probes
    # ------------------------------------------------------------------
    def _init_health(self) -> None:
        """Register the built-in probes (see ``repro.obs.health``).

        The checks read pool/replica/log state directly — never through
        :meth:`stats` — so a probe stays cheap and :meth:`stats` can keep
        reporting while a probe would block.
        """
        checks = self.health_checks
        checks.register("service", self._check_service)
        checks.register("pool", self._check_pool)
        if self.executor.backend.replicated_stores():
            checks.register("replicas", self._check_replicas)
        if self._durable:
            checks.register("durable_log", self._check_durable_log)
        if self._repair_loop is not None:
            checks.register("repair_loop", self._check_repair_loop)

    def _check_service(self) -> CheckResult:
        if self._closed:
            return CheckResult("service", UNHEALTHY, reason="service is closed")
        return CheckResult("service", HEALTHY)

    def _check_pool(self) -> CheckResult:
        pool, _per_unit = self._pool_stats()
        waiting, rejections, stale = pool.waiting, pool.rejections, pool.stale_rebuilds
        with self._probe_lock:
            new_rejections = rejections - self._health_pool_rejections
            new_stale = stale - self._health_pool_stale_rebuilds
            self._health_pool_rejections = rejections
            self._health_pool_stale_rebuilds = stale
        details = {
            "size": pool.size,
            "in_use": pool.in_use,
            "waiting": waiting,
            "rejections": rejections,
            "stale_rebuilds": stale,
        }
        reasons: List[str] = []
        if waiting:
            reasons.append(f"{waiting} checkout(s) waiting")
        if new_rejections > 0:
            reasons.append(f"{new_rejections} rejection(s) since last probe")
        if new_stale > 0:
            reasons.append(
                f"{new_stale} stale clone rebuild(s) since last probe"
            )
        status = DEGRADED if reasons else HEALTHY
        return CheckResult(
            "pool", status, reason="; ".join(reasons), details=details
        )

    def _check_replicas(self) -> CheckResult:
        status = HEALTHY
        reasons: List[str] = []
        details: Dict[str, object] = {}
        for label, store in self.executor.backend.replicated_stores():
            stats = store.stats()
            details[label] = {
                "replica_count": stats.replica_count,
                "live_replicas": stats.live_replicas,
                "fenced": stats.fenced,
            }
            if stats.live_replicas == 0:
                status = UNHEALTHY
                reasons.append(f"{label}: no live replicas")
            elif stats.live_replicas < stats.replica_count:
                if status == HEALTHY:
                    status = DEGRADED
                reasons.append(
                    f"{label}: {stats.live_replicas}/{stats.replica_count} "
                    "replicas live"
                )
        return CheckResult(
            "replicas", status, reason="; ".join(reasons), details=details
        )

    def _check_durable_log(self) -> CheckResult:
        logs = self._durable_logs()
        status = HEALTHY
        reasons: List[str] = []
        segments = 0
        size_bytes = 0
        for log in logs:
            if log.closed:
                status = UNHEALTHY
                reasons.append(f"log {log.directory} is closed")
                continue
            if not Path(log.directory).is_dir():
                status = UNHEALTHY
                reasons.append(f"log directory {log.directory} is gone")
                continue
            log_stats = log.stats()
            segments += log_stats.segments
            size_bytes += log_stats.size_bytes
        details = {
            "logs": len(logs),
            "segments": segments,
            "size_bytes": size_bytes,
        }
        return CheckResult(
            "durable_log", status, reason="; ".join(reasons), details=details
        )

    def _check_repair_loop(self) -> CheckResult:
        loop = self._repair_loop
        if loop is None:
            return CheckResult("repair_loop", HEALTHY, reason="not configured")
        details = {"ticks": loop.ticks, "errors": loop.errors}
        if not loop.running and not self._closed:
            return CheckResult(
                "repair_loop",
                UNHEALTHY,
                reason="repair loop configured but not running",
                details=details,
            )
        if loop.errors:
            return CheckResult(
                "repair_loop",
                DEGRADED,
                reason=f"{loop.errors} repair tick(s) raised",
                details=details,
            )
        return CheckResult("repair_loop", HEALTHY, details=details)

    def health(self) -> HealthReport:
        """Run every registered probe; the worst status wins."""
        return self.health_checks.report()

    # ------------------------------------------------------------------
    # Admin endpoint providers
    # ------------------------------------------------------------------
    @property
    def admin_port(self) -> Optional[int]:
        """The admin endpoint's bound port (``None`` when disabled)."""
        return self.admin.port if self.admin is not None else None

    def _event_tail(self, kind: Optional[str], n: int) -> Dict[str, object]:
        return {
            "events": [event.to_dict() for event in self.events.tail(n, kind)],
            "counts": self.events.counts(),
            "dropped": self.events.dropped,
        }

    def _trace_recent(self, n: int) -> Dict[str, object]:
        return {
            "traces": self.trace_buffer.recent(n),
            "completed": self.trace_buffer.completed,
            "recorded": self.trace_buffer.recorded,
        }

    def _profiles_recent(self, n: int) -> Dict[str, object]:
        buffer = self.profile_buffer
        return {
            "profiles": buffer.recent(n),
            "offered": buffer.offered,
            "recorded": buffer.recorded,
            "sample": buffer.sample,
        }

    def _profiles_worst(self, n: int) -> Dict[str, object]:
        buffer = self.profile_buffer
        return {
            "profiles": buffer.worst(n),
            "worst_q_error": buffer.worst_q_error(),
        }

    def _build_units(
        self, logs: Optional[Sequence[MutationLog]] = None
    ) -> Tuple[_Unit, ...]:
        """One pool and one mutation log per storage unit of the template.

        *logs* supplies pre-existing logs in unit order (the recovered
        durable ones); ``None`` creates fresh in-memory logs — also the
        rebalance path, which rebuilds the units for a new shard layout.
        """
        template = self.executor.backend
        # Fencing and failover happen deep inside backends; install the
        # event log first, so the pooled clones inherit it through clone().
        template.set_event_log(self.events)
        units: List[_Unit] = []
        try:
            for index, (label, store) in enumerate(template.storage_units()):
                log = logs[index] if logs is not None else MutationLog()
                pool = ConnectionPool(
                    store,
                    size=self._pool_size,
                    max_waiters=self._max_waiters,
                    label=label,
                    mutation_log=log,
                    events=self.events,
                )
                units.append(_Unit(label, store, log, pool))
        except Exception:
            for unit in units:
                unit.pool.close(force=True)
            raise
        return tuple(units)

    def _adopt_units(self, units: Tuple[_Unit, ...]) -> None:
        """Install *units*; the one place the public views are assigned.

        ``pool`` / ``mutation_log`` are set when the template is its own
        unit, ``shard_pools`` / ``shard_logs`` (in unit order) otherwise;
        the request paths read none of them.  Only on such a template do
        updates pass the publish gate alongside publishes (its one log
        append is atomic).  Otherwise a change set spanning units could be
        seen half-applied, and a template answering for other units may
        keep what it derived from them (the sharded gather's tables),
        which a publish holding a pre-write connection would refill with
        old rows: updates take the gate alone.
        """
        own = len(units) == 1 and units[0].store is self.executor.backend
        self._units = units
        self._update_gate = self._gate.read if own else self._gate.write
        self.pool: Optional[ConnectionPool] = units[0].pool if own else None
        self.mutation_log: Optional[MutationLog] = units[0].log if own else None
        self.shard_pools: Tuple[ConnectionPool, ...] = (
            () if own else tuple(unit.pool for unit in units)
        )
        self.shard_logs: Tuple[MutationLog, ...] = (
            () if own else tuple(unit.log for unit in units)
        )

    def _pool_stats(self) -> Tuple[PoolStats, Tuple[PoolStats, ...]]:
        """The aggregate over the units' pools (see :class:`ServiceStats`
        on ``peak_in_use``), and the per-unit snapshots it sums."""
        per_unit = tuple(unit.pool.stats() for unit in self._units)
        aggregate = PoolStats(
            size=sum(stats.size for stats in per_unit),
            created=sum(stats.created for stats in per_unit),
            in_use=sum(stats.in_use for stats in per_unit),
            checkouts=sum(stats.checkouts for stats in per_unit),
            peak_in_use=sum(stats.peak_in_use for stats in per_unit),
            wait_count=sum(stats.wait_count for stats in per_unit),
            waiting=sum(stats.waiting for stats in per_unit),
            rejections=sum(stats.rejections for stats in per_unit),
            catchups=sum(stats.catchups for stats in per_unit),
            entries_replayed=sum(stats.entries_replayed for stats in per_unit),
            stale_rebuilds=sum(stats.stale_rebuilds for stats in per_unit),
            label=f"{self.executor.backend.backend_name}({len(per_unit)})",
        )
        return aggregate, per_unit

    def _close_template(self) -> None:
        self.executor.close()
        template = self.executor.backend
        if self._template_owned and not template.closed:
            template.close()

    def _reset_drift_baseline(self) -> None:
        """Remember the row counts the current statistics describe."""
        self._stats_rows = {
            name: float(statistics.row_count)
            for name, statistics in self.system.catalog.tables.items()
        }
        self._drift_rows = {}

    # ------------------------------------------------------------------
    # Reformulation (cache-aware, serialized)
    # ------------------------------------------------------------------
    def reformulate(self, query: XBindQuery, parent=None) -> MarsReformulation:
        """The (possibly cached) reformulation the service would execute.

        Its spans attach to *parent* (default: the ambient span).
        """
        cache = self.plan_cache
        # Spans are grafted after the fact (add_phase on the measured
        # durations) rather than entered: nothing below needs the ambient
        # span, and a cache hit — the steady-state path — then costs one
        # span, not a context-managed subtree.
        if parent is None:
            parent = current_span()
        with self._reformulate_lock:
            # Read the miss counter on both sides of the call while still
            # holding the lock: read outside it, another thread's concurrent
            # miss would be misattributed to this call.
            before = cache.misses
            engine_before = self.system.engine_invocations
            clock = timer()
            reformulation = self.system.reformulate(query)
            seconds = clock.stop()
            missed = cache.misses != before
            compiled = self.system.engine_invocations != engine_before
        offset = clock.started - parent.start
        if missed and not compiled:
            # A plan-cache miss the disk store absorbed: the artifact was
            # decoded, re-ranked and re-rendered — no chase, no backchase.
            span = parent.add_phase(
                "reformulate", seconds, offset=offset,
                query=query.name, cache_hit=False, plan_store_hit=True,
            )
            span.add_phase("plan_store.load", seconds)
            self._m_plans_loaded.inc()
        elif missed:
            span = parent.add_phase(
                "reformulate", seconds, offset=offset,
                query=query.name, cache_hit=False,
            )
            # Graft the C&B engine's own phase readings into the tree
            # instead of re-timing them; whatever the engine did not
            # account for (cache probe, plan assembly) leads the span.
            chase_seconds = reformulation.time_to_universal_plan
            overhead = max(0.0, seconds - reformulation.time_to_best)
            span.add_phase("plan_cache.lookup", overhead, hit=False)
            span.add_phase("chase", chase_seconds, offset=overhead)
            span.add_phase(
                "backchase.initial",
                max(0.0, reformulation.time_to_initial - chase_seconds),
                offset=overhead + chase_seconds,
            )
            minimize_attributes = {}
            if not reformulation.complete:
                # Only a truncated search says so: complete compiles keep
                # the trace payload they always had.
                minimize_attributes["truncated"] = True
                self.events.record(
                    COMPILE_TRUNCATED,
                    query=query.name,
                    subqueries_inspected=reformulation.subqueries_inspected,
                    minimal=len(reformulation.minimal),
                )
            span.add_phase(
                "backchase.minimize",
                reformulation.minimization_time,
                offset=overhead + reformulation.time_to_initial,
                subqueries_inspected=reformulation.subqueries_inspected,
                **minimize_attributes,
            )
            self._m_reformulations.inc()
        else:
            parent.add_phase(
                "plan_cache.lookup", seconds, offset=offset,
                query=query.name, hit=True,
            )
        return reformulation

    def warm(self, queries: Sequence[XBindQuery]) -> int:
        """Pre-populate the plan cache; returns how many plans were computed."""
        before = self._m_reformulations.value
        for query in queries:
            self.reformulate(query)
        return int(self._m_reformulations.value - before)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def plan_for(self, reformulation: MarsReformulation) -> ConjunctiveQuery:
        """The executable plan for *reformulation*: its cost-ranked best."""
        if not reformulation.found:
            raise ReformulationError(
                f"no reformulation of {reformulation.query.name} against the "
                "proprietary schema exists"
            )
        return reformulation.best

    def _run_plan(
        self,
        plan: ConjunctiveQuery,
        distinct: bool,
        held: Optional[Dict[int, StorageBackend]] = None,
        flight: Optional[_Flight] = None,
    ) -> Tuple[List[Row], Tuple[str, ...]]:
        """Route one plan, check out the units the route names and execute
        it there; returns the rows and the routing modes taken.

        *held* maps unit positions to the connections a batch holds: kept
        when the route names the same units, else all released before the
        named units are checked out, always in ascending order (uniform
        acquisition order means concurrent publishes cannot deadlock
        against each other).  The caller releases *held* after its last
        plan; without it the plan's connections are released here.
        *flight* is the request the plan serves.
        """
        if held is None:
            held = {}
            try:
                return self._run_plan(plan, distinct, held, flight)
            finally:
                self._release(held)
        template = self.executor.backend
        route = template.route_plan(plan)
        needed = route.needed_shards
        if tuple(held) != needed:
            self._release(held)
            for position in needed:
                # The LSN barrier: the clone must have replayed every
                # update its unit's log acknowledged, so a client that
                # just wrote reads its own write.
                unit = self._units[position]
                held[position] = unit.pool.acquire(
                    timeout=self.checkout_timeout, min_lsn=unit.log.lsn
                )
        span = current_span().child("execute", engine=template.backend_name)
        if span.profiled and flight is not None:
            # The root operator of the flight's profile, with the
            # planner's rejected alternatives priced: estimate-vs-actual
            # attribution should name what *could* have run, not just
            # what did.
            span.as_operator(EXECUTE, flight.query.name)
            costs = flight.reformulation.candidate_costs
            if costs:
                span.annotate(candidate_costs=[[n, round(c, 3)] for n, c in costs])
        with span:
            rows = template.execute_routed(route, plan, distinct, held)
            span.produced(len(rows))
        return rows, tuple(str(decision.mode) for _q, decision in route.decisions)

    def _release(self, held: Dict[int, StorageBackend]) -> None:
        """Return every connection *held* holds to its unit's pool."""
        for position, connection in held.items():
            self._units[position].pool.release(connection)
        held.clear()

    def publish(
        self,
        query: XBindQuery,
        distinct: bool = True,
        trace: bool = False,
    ) -> List[Row]:
        """Reformulate (or hit the plan cache) and execute *query*; return rows.

        Every call is timed into ``mars_publish_latency_seconds`` and its
        outcome fed to the cost-feedback recorder; with tracing enabled
        (or *trace* forcing it for this call) the span tree is kept on
        :attr:`last_trace`.
        """
        ((rows, _record),) = self._serve([query], distinct, trace)
        return rows

    def publish_many(
        self,
        queries: Sequence[XBindQuery],
        distinct: bool = True,
    ) -> List[List[Row]]:
        """Serve a batch of queries on this thread, reusing one connection.

        The same rules as :meth:`publish` apply to the whole batch, and
        every query in it leaves what a publish leaves (counters, latency,
        SLO, cost feedback, its own trace, audit entry) before the batch
        is acknowledged.  Each plan routes on its own: a plan naming the
        units the previous one named reuses its connections, and any
        other releases them first, so a batch of pruned queries never
        pins every unit at once.
        """
        return [rows for rows, _record in self._serve(queries, distinct)]

    def _serve(
        self,
        queries: Sequence[XBindQuery],
        distinct: bool,
        trace: bool = False,
        profile: bool = False,
    ) -> List[Tuple[List[Row], RequestRecord]]:
        """Plan every query, check out once, execute every plan, emit every
        record — the one path a query is served on."""
        if self._closed:
            raise StorageError("PublishingService is closed")
        # The LSN barrier these requests are served at (read-your-writes):
        # captured up front so the audit entry records the guarantee made.
        barrier_lsn = self._write_lsn
        # The profiling decision is made *before* execution (forced by
        # explain(), else the buffer's deterministic 1-in-N
        # sampler): an unsampled publish's tree records no operator.
        sampler = self.profile_buffer
        flights = [
            _Flight(
                query,
                self.tracer.trace(
                    "publish", force=trace,
                    profiled=profile or (
                        sampler is not None and sampler.should_sample()
                    ),
                    query=query.name,
                ),
            )
            for query in queries
        ]
        wall = timer()
        try:
            with self._gate.read():
                for flight in flights:
                    clock = timer()
                    flight.reformulation = self.reformulate(
                        flight.query, parent=flight.trace.root
                    )
                    flight.plan = self.plan_for(flight.reformulation)
                    flight.coarse["reformulate"] = clock.stop()
                self._execute(flights, distinct)
        except Exception:
            self._m_publish_errors.inc()
            raise
        wall_seconds = wall.stop()
        served = []
        for flight in flights:
            query, plan_name = flight.query, flight.plan.name
            estimate = flight.reformulation.cost_estimate
            query_profile = None
            if flight.trace.root.profiled:
                query_profile = QueryProfile(
                    flight.trace.root, query=query.name,
                    plan=plan_name, forced=profile,
                )
            record = self._record(
                "publish",
                flight.trace,
                barrier_lsn,
                # A lone publish took the call's wall clock (gate wait
                # included); a batch member its own planning + execution.
                wall_seconds if len(flights) == 1 else sum(flight.coarse.values()),
                coarse=flight.coarse,
                profile=query_profile,
                query=query.name,
                # Of the compiled query the plan cache keeps: the same
                # structure, so the same digest, memoized across requests
                # even when clients build a fresh query object each time.
                fingerprint=flight.reformulation.query.fingerprint_digest(),
                plan=plan_name,
                route=flight.route,
                rows=len(flight.rows),
                estimate=(estimate.cardinality, estimate.total),
            )
            served.append((flight.rows, self._emit(record)))
        return served

    def _execute(self, flights: Sequence[_Flight], distinct: bool) -> None:
        """Run every planned flight, holding connections from one plan to
        the next (see :meth:`_run_plan`)."""
        held: Dict[int, StorageBackend] = {}
        try:
            for flight in flights:
                clock = timer()
                with flight.trace.root as root:
                    flight.rows, flight.route = self._run_plan(
                        flight.plan, distinct, held, flight
                    )
                    root.annotate(rows=len(flight.rows))
                flight.coarse["execute"] = clock.stop()
        finally:
            self._release(held)

    def _record(
        self,
        kind: str,
        trace,
        lsn: int,
        seconds: float,
        coarse: Optional[Dict[str, float]] = None,
        **fields: object,
    ) -> RequestRecord:
        """Describe one served request — the only place a record is built.

        The id is stamped on the span tree's and the profile's metadata
        too, so the objects ``/traces/recent`` and ``/profiles/*`` export
        carry it.  Phases come from the span tree when there is one, else
        from *coarse*.
        """
        request_id = next(self._request_ids)
        phases = coarse or {}
        if trace.enabled:
            trace.metadata["request_id"] = request_id
            phases = phase_breakdown(trace.root)
        if fields.get("profile") is not None:
            fields["profile"].metadata["request_id"] = request_id
        return RequestRecord(
            request_id, kind, time.time(), lsn, seconds, phases, trace, **fields
        )

    def _emit(self, record: RequestRecord) -> RequestRecord:
        """Hand *record* to every sink, once, in this fixed order.

        Metrics, SLO, cost feedback, slow-query log, trace buffer, profile
        buffer and — last, raising on failure so the request stays
        unacknowledged — the durable audit entry.
        """
        published = record.kind == "publish"
        if published:
            self._m_publishes.inc()
            self._m_published_rows.inc(record.rows)
            self._m_publish_latency.observe(record.seconds)
        else:
            self._m_updates.inc()
            self._m_update_latency.observe(record.seconds)
        if published and self.slo is not None:
            violated = self.slo.observe(record.query, record.seconds)
            self._m_slo_requests.labels(query=record.query).inc()
            if violated:
                self._m_slo_violations.labels(query=record.query).inc()
        feedback = record.feedback()
        if feedback is not None:
            self.cost_feedback.record(**feedback)
            self._m_feedback.inc()
        threshold = self.slow_query_seconds
        if published and threshold is not None and record.seconds >= threshold:
            self._m_slow.inc()
            if self._slow_sampler.sampled():
                self.events.record(SLOW_QUERY, **record.slow_event(threshold))
        if record.trace.enabled:
            self.last_trace = record.trace
            self.trace_buffer.record(record.trace)
        if record.profile is not None:
            self.last_profile = record.profile
            if self.profile_buffer is None or self.profile_buffer.record(
                record.profile
            ):
                self._m_profiles.inc()
        if self.audit is not None:
            self.audit.record(record.audit_entry())
        return record

    def slow_queries(self):
        """The sampled slow-query events retained in the event log."""
        return self.events.events(SLOW_QUERY)

    # ------------------------------------------------------------------
    # The write path
    # ------------------------------------------------------------------
    def update(self, changeset: ChangeSet) -> int:
        """Apply *changeset* to the live deployment; returns its LSN.

        The template routes the change set to its storage units; each
        piece is applied to its unit (fanned to every replica on a
        replicated one) and appended to the unit's mutation log.  Pooled
        snapshot clones replay the tail on their next checkout, and
        :meth:`publish` enforces a read-your-writes LSN barrier, so a
        subsequent publish observes this update without any rebuild.

        Updates from different threads serialize behind one write lock.
        When cumulative writes drift a relation's row count more than
        ``drift_threshold`` (default 20%) past what the current statistics
        describe, statistics are re-collected and attached — which also
        flushes the plan cache — so cost-based routing keeps pricing the
        data that is actually stored.
        """
        if self._closed:
            raise StorageError("PublishingService is closed")
        if changeset.is_empty():
            return self._write_lsn
        tracked = self.tracer.trace("update", changes=len(changeset.changes))
        clock = timer()
        template = self.executor.backend
        with tracked.root as root:
            with self._update_gate():
                with self._write_lock:
                    routed = template.route_changeset(changeset)
                    for position, piece in sorted(routed.items()):
                        unit = self._units[position]
                        with root.child("apply", shard=position):
                            unit.store.apply(piece)
                        with root.child("log.append", shard=position):
                            unit.log.append(piece)
                    template.units_written()
                    if self._rebalance_log is not None:
                        # A rebalance is copying fragments right now: tee
                        # the change so the new layout replays it.
                        self._rebalance_log.append(changeset)
                    self._write_lsn += 1
                    lsn = self._write_lsn
                    refresh = self._note_drift(changeset)
            root.annotate(lsn=lsn)
        self._emit(
            self._record(
                "update", tracked, lsn, clock.stop(), changes=len(changeset.changes)
            )
        )
        if refresh:
            # Outside the gate: re-measuring the written tables must not
            # hold publishes (or a waiting rebalance) up.
            self._refresh_statistics(reason="drift")
        return lsn

    def _note_drift(self, changeset: ChangeSet) -> bool:
        """Account the written rows; True when drift crosses the threshold."""
        if self.drift_threshold is None:
            return False
        triggered = False
        for change in changeset.changes:
            name = change.relation
            self._drift_rows[name] = self._drift_rows.get(name, 0.0) + change.touched
            baseline = max(1.0, self._stats_rows.get(name, 1.0))
            if self._drift_rows[name] > self.drift_threshold * baseline:
                triggered = True
        return triggered

    def _refresh_statistics(self, reason: str = "drift") -> None:
        """Re-collect statistics and re-rank plans (flushes the plan cache)."""
        catalog = self.executor.collect_statistics()
        with self._reformulate_lock:
            self.system.attach_statistics(catalog)
        self._reset_drift_baseline()
        self._m_statistics_refreshes.inc()
        self.events.record(
            STATISTICS_REFRESH, reason=reason, tables=len(catalog.tables)
        )

    def misestimation_report(
        self, min_samples: int = 1, q_threshold: float = 1.0
    ) -> List[FingerprintFeedback]:
        """Per-fingerprint estimate-vs-actual feedback, worst q-error first."""
        return self.cost_feedback.report(
            min_samples=min_samples, q_threshold=q_threshold
        )

    def refresh_if_misestimated(
        self, q_threshold: float = 2.0, min_samples: int = 3
    ) -> bool:
        """Re-collect statistics when observed planning error is too large.

        Consults the cost-feedback report: when any fingerprint with at
        least *min_samples* executions shows a cardinality q-error of
        *q_threshold* or worse, statistics are re-collected and attached
        (flushing the plan cache) and the feedback aggregates are reset —
        the same corrective action row-count drift triggers, driven by
        observed misestimation instead of write volume.  Returns whether
        a refresh ran.
        """
        if self._closed:
            raise StorageError("PublishingService is closed")
        report = self.cost_feedback.report(
            min_samples=min_samples, q_threshold=q_threshold
        )
        if not report:
            return False
        self._refresh_statistics(reason="misestimation")
        self.cost_feedback.clear()
        return True

    # ------------------------------------------------------------------
    # Online rebalancing
    # ------------------------------------------------------------------
    def rebalance(
        self,
        shards: Optional[int] = None,
        children: Optional[Sequence[object]] = None,
    ) -> RebalanceReport:
        """Split or merge the sharded deployment's shards, online.

        Reads and writes keep flowing while the fragments are copied into
        the new layout (each table's snapshot pauses writers only
        briefly, and concurrent change sets are teed into a rebalance log
        the copier replays); the final log tail and the partition-map
        swap happen under an exclusive gate that drains in-flight
        publishes.  After the cutover the per-shard pools and mutation
        logs are rebuilt for the new layout and statistics are
        re-collected — which flushes the plan cache, so no plan priced
        under the old fragment sizes survives the new topology.
        """
        if self._closed:
            raise StorageError("PublishingService is closed")
        template = self.executor.backend
        if self._durable:
            # The on-disk logs are bound to the shard layout they were
            # written under: a restart rebuilds that layout from the
            # configuration and replays each shard's log into it, so a
            # rebalanced (different) layout would replay rows into the
            # wrong fragments.  Re-deploy with the new shard count (and a
            # fresh log directory) instead.
            raise StorageError(
                "rebalance is not supported with a durable log directory: "
                "the segment logs are bound to the current shard layout"
            )
        clock = timer()
        with self._rebalance_lock:
            tee = MutationLog()
            # Refuses (StorageError) any template that is not sharded.
            rebalancer = Rebalancer(
                template, shards=shards, children=children, events=self.events
            )
            with self._write_lock:
                self._rebalance_log = tee
            try:
                rebalancer.stage()
                rebalancer.copy_all(log=tee, pause=lambda: self._write_lock)
                rebalancer.replay(tee)
                with self._gate.write():
                    with self._write_lock:
                        rebalancer.replay(tee)
                        old_children = rebalancer.cutover()
                        self._rebalance_log = None
                    old_units = self._units
                    self._adopt_units(self._build_units())
                    for unit in old_units:
                        unit.pool.close()
            except Exception:
                rebalancer.abort()
                raise
            finally:
                with self._write_lock:
                    self._rebalance_log = None
            for child in old_children:
                if not child.closed:
                    child.close()
            self._refresh_statistics(reason="rebalance")
        self._m_rebalances.inc()
        self._m_rebalance_latency.observe(clock.elapsed)
        return RebalanceReport(
            old_shard_count=len(old_units),
            new_shard_count=template.shard_count,
            tables_copied=rebalancer.tables_copied,
            rows_copied=rebalancer.rows_copied,
            entries_replayed=rebalancer.entries_replayed,
            layout_version=template.layout_version,
            seconds=clock.stop(),
        )

    # ------------------------------------------------------------------
    # Durability and self-healing
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Snapshot the stored state and compact the durable log(s).

        Writes a checkpoint of every pool's backing store at the current
        log head (writers pause for the snapshot; publishes keep flowing),
        then drops the sealed segments the checkpoint covers.  Restart
        recovery becomes *restore snapshot + replay the remaining tail*
        instead of replaying the full history — and until the first
        checkpoint, nothing is ever compacted away, because the log is the
        only path from the configuration's base data to the acknowledged
        state.  Returns the highest checkpointed LSN.
        """
        if self._closed:
            raise StorageError("PublishingService is closed")
        if not self._durable:
            raise StorageError(
                "checkpoint requires a durable log (configure log_dir)"
            )
        units = self._units
        with self._write_lock:
            lsns = [unit.log.write_checkpoint(unit.store) for unit in units]
        # Compaction outside the write lock: deleting segment files does
        # not touch the stores.  Pooled clones below the new floor are
        # rebuilt from the template on their next checkout (the pool's
        # stale-rebuild path) rather than erroring.
        segments_dropped = sum(
            unit.log.compact(unit.log.checkpoint_lsn) for unit in units
        )
        checkpoint_lsn = max(lsns, default=0)
        self.events.record(
            LOG_CHECKPOINT,
            lsn=checkpoint_lsn,
            logs=len(units),
            entries_compacted=segments_dropped,
        )
        return checkpoint_lsn

    def repair_replicas(self) -> Tuple[RepairReport, ...]:
        """Re-provision dead replicas back to K live copies, online.

        Walks every replicated store the template declares (itself, or
        each sharded child that is replicated), and for each one with
        fenced/killed replicas runs the snapshot + log-replay + adopt
        protocol of :class:`~repro.replica.repair.ReplicaRepairer` —
        writers pause only for the snapshot and the final cutover.  Safe
        to call when nothing is dead (returns an empty tuple).  Each
        repair is recorded as a ``replica.repaired`` event and counted in
        ``mars_replica_repairs_total``.
        """
        if self._closed:
            raise StorageError("PublishingService is closed")
        reports: List[RepairReport] = []
        # Serialized against rebalance: both swap live storage around.
        with self._rebalance_lock:
            # Writes to a store are teed into the log of the unit it is.
            logs = {id(unit.store): unit.log for unit in self._units}
            for _label, store in self.executor.backend.replicated_stores():
                repairer = ReplicaRepairer(store, events=self.events)
                if not repairer.dead_replicas():
                    continue
                report = repairer.repair_all(
                    log=logs.get(id(store)), pause=lambda: self._write_lock
                )
                reports.append(report)
                if report.repaired:
                    self._m_repairs.inc(len(report.repaired))
        return tuple(reports)

    def _auto_repair_tick(self) -> None:
        if not self._closed:
            self.repair_replicas()

    # ------------------------------------------------------------------
    # Introspection and lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        template = self.executor.backend
        pool, per_unit = self._pool_stats()
        # Replica counters are the template's own, when it is replicated.
        replicated = dict(template.replicated_stores()).get("template")
        durable = [log.stats() for log in self._durable_logs()]
        # The package version is read lazily (repro.serve is imported
        # while the repro package is still initialising, so a module-load
        # read would see a half-built package).
        import repro

        return ServiceStats(
            queries_served=int(self._m_publishes.value),
            reformulations_computed=int(self._m_reformulations.value),
            cache=self.plan_cache.stats(),
            pool=pool,
            # The per-unit breakdown is empty when the template is its own unit.
            shard_pools=() if self.pool is not None else per_unit,
            router=template.router_stats(),
            updates_applied=int(self._m_updates.value),
            last_write_lsn=self._write_lsn,
            statistics_refreshes=int(self._m_statistics_refreshes.value),
            rebalances=int(self._m_rebalances.value),
            replicas=replicated.stats() if replicated is template else None,
            replica_failovers=self.events.count(REPLICA_FAILOVER),
            replica_fenced=self.events.count(REPLICA_FENCED),
            replica_repairs=int(self._m_repairs.value),
            events_dropped=self.events.dropped,
            log_segments=sum(stats.segments for stats in durable),
            log_size_bytes=sum(stats.size_bytes for stats in durable),
            started_at=self.started_at,
            uptime_seconds=self._started_clock.elapsed,
            version=getattr(repro, "__version__", "unknown"),
            slo=tuple(self.slo.report()) if self.slo is not None else (),
            audit=self.audit.stats() if self.audit is not None else None,
            plans_loaded=int(self._m_plans_loaded.value),
            plan_store=(
                self.plan_store.stats() if self.plan_store is not None else None
            ),
        )

    def metrics(self, fmt: str = "prometheus") -> str:
        """The metrics exposition: Prometheus text or JSON.

        ``fmt="prometheus"`` renders the text format (version 0.0.4) a
        scrape endpoint serves; ``fmt="json"`` the same data — including
        interpolated p50/p95/p99 per histogram — as a JSON document.
        Export runs the registered collectors, so gauges reflect the
        *Stats snapshots at call time.
        """
        if fmt == "prometheus":
            return self.registry.render_prometheus()
        if fmt == "json":
            return self.registry.to_json()
        raise ValueError(
            f"unknown metrics format {fmt!r} (use 'prometheus' or 'json')"
        )

    def explain(
        self,
        query: XBindQuery,
        distinct: bool = True,
        trace: bool = False,
        analyze: bool = False,
    ):
        """Serve *query* once, profiled, and describe what ran.

        The query is published exactly like :meth:`publish` — counted,
        fed to cost feedback, kept on :attr:`last_profile` and in the
        profile buffer, audited — with profiling forced on regardless of
        ``profile_sample``.  The text is that run's
        :class:`~repro.profile.QueryProfile` rendered: the plan and
        ranked candidate costs on the ``execute`` root, then every
        operator the backends recorded (routing decisions with chosen and
        rejected costs, the replica that served each read and its
        failover order, shard fragments, SQL statements with the engine's
        plan, hash-join steps with table sizes), each estimate beside its
        actual rows.  With *trace* the span tree is appended; with
        ``analyze=True`` the profile itself is returned instead of text.
        """
        ((_rows, record),) = self._serve(
            [query], distinct, trace, profile=True
        )
        if analyze:
            return record.profile
        text = record.profile.render()
        if trace:
            text += "\n\n" + record.trace.render()
        return text

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self, force: bool = False) -> None:
        """Release the pools and the template backend; idempotent.

        Closing while publishes are still in flight fails loudly (the
        pools refuse to close over checked-out connections); pass
        ``force=True`` for emergency teardown.
        """
        if self._closed:
            return
        if not force:
            # Check all pools up front so a loud failure leaves nothing
            # half-closed (best effort: a racing in-flight publish can
            # still trip the per-pool check below).
            for unit in self._units:
                if unit.pool.stats().in_use:
                    raise StorageError(
                        "cannot close PublishingService: publishes still in "
                        "flight (wait for them, or close(force=True))"
                    )
        # The admin endpoint goes first: once teardown starts, a scrape
        # must not race half-closed storage (probes hitting the dead port
        # read connection-refused, the unambiguous "down").
        if self.admin is not None:
            self.admin.stop()
        # The repair loop must stop before storage goes away (a repair
        # racing the teardown would clone from closing replicas).
        if self._repair_loop is not None:
            self._repair_loop.stop()
        # Close the pools *before* marking the service closed: if a racing
        # publish slips past the sweep above and a pool refuses to close,
        # the service stays open and close() can simply be retried
        # (pool.close is idempotent once it succeeds).
        for unit in self._units:
            unit.pool.close(force=force)
        self._closed = True
        # Seal the audit log after the last acknowledgeable request (the
        # pools are closed, nothing can publish), then the durable logs
        # after the pools (a forced pool teardown may still sync a clone)
        # and before the template disappears.
        if self.audit is not None:
            self.audit.close()
        for unit in self._units:
            unit.log.close()
        self._close_template()

    def __enter__(self) -> "PublishingService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
