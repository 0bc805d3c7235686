"""The traced pass: where the time of a publish or an update goes.

A separate, single-client pass of a fixed number of operations.  Beside
every ``service.publish()`` the harness walks the same path itself through
public calls — fingerprint, plan-cache probe, (reformulate), ``plan_for``,
(route), pool checkout, execute, checkin — and records an in-memory span
around each call into a layer.  Both paths must return the same rows, so
the decomposition cannot drift away from the service unnoticed.  Spans are
written to ``bench/out/trace-<workload>.json`` when the pass has ended.

Spans inside ``src/`` are a later change; the one exception is that an
``update()`` is a single public call, so its ``apply`` and ``log.append``
children are copied from the span tree the service already records.
"""

from __future__ import annotations

import gc
import json
import random
import shutil
import statistics
import sys
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.storage.sql import render_sql

from . import harness, workloads
from .harness import Deployment, metric, percentile
from .workloads import WorkloadSpec

#: Every per-layer metric a traced run reports, with its unit.  A layer
#: that does no work on a workload reads 0 there; that is the split the
#: workloads were chosen to show.
LAYER_UNITS: Dict[str, str] = {
    "serve.plan_cache.hit_ratio": "ratio",
    "serve.plan_cache.lookup_us": "us",
    "serve.pool.acquire_us": "us",
    "serve.pool.release_us": "us",
    "serve.pool.wait_share": "ratio",
    "serve.pool.catchup_entries": "count",
    "serve.unattributed_us": "us",
    "serve.client_scaling": "ratio",
    "serve.publish_p50_ms": "ms",
    "serve.update_p50_ms": "ms",
    "engine.invocations": "count",
    "engine.reformulate_ms": "ms",
    "engine.compile_ms": "ms",
    "engine.chase_ms": "ms",
    "engine.backchase_ms": "ms",
    "engine.chase_steps": "count",
    "cost.rank_us": "us",
    "cost.q_error_p50": "ratio",
    "cost.q_error_p95": "ratio",
    "storage.sqlite.render_us": "us",
    "storage.execute_us": "us",
    "storage.apply_us": "us",
    "shard.route_us": "us",
    "shard.execute_routed_us": "us",
    "shard.mode_counts.single": "count",
    "shard.mode_counts.scatter": "count",
    "shard.mode_counts.gather": "count",
    "shard.fragment_fetches": "count",
    "replica.log_append_us": "us",
    "replica.log_bytes_per_user_byte": "ratio",
    "replica.checkpoint_ms": "ms",
    "replica.recovery_ms": "ms",
    "bench.trace_overhead_ratio": "ratio",
}

#: Span name -> (metric, scale from seconds) for the plain per-span medians.
SPAN_METRICS = {
    "plan_cache.lookup": ("serve.plan_cache.lookup_us", 1e6),
    "pool.acquire": ("serve.pool.acquire_us", 1e6),
    "pool.release": ("serve.pool.release_us", 1e6),
    "execute": ("storage.execute_us", 1e6),
    "route": ("shard.route_us", 1e6),
    "execute_routed": ("shard.execute_routed_us", 1e6),
    "reformulate": ("engine.reformulate_ms", 1e3),
    "chase": ("engine.chase_ms", 1e3),
    "backchase": ("engine.backchase_ms", 1e3),
    "probe.engine.compile": ("engine.compile_ms", 1e3),
    "probe.cost.rank": ("cost.rank_us", 1e6),
    "probe.storage.sqlite.render": ("storage.sqlite.render_us", 1e6),
    "apply": ("storage.apply_us", 1e6),
    "log.append": ("replica.log_append_us", 1e6),
    "checkpoint": ("replica.checkpoint_ms", 1e3),
    "update": ("serve.update_p50_ms", 1e3),
}


class Span:
    """One timed call into a layer; a context manager that nests."""

    __slots__ = ("recorder", "id", "name", "start", "end", "parent", "request", "attributes")

    def __init__(self, recorder: "SpanRecorder", name: str, attributes: Dict[str, object]):
        self.recorder = recorder
        self.id = len(recorder.spans)
        self.name = name
        self.request = recorder.request
        self.attributes = attributes
        self.parent: Optional[int] = None
        self.start = self.end = 0.0

    def __enter__(self) -> "Span":
        stack = self.recorder.stack
        self.parent = stack[-1] if stack else None
        stack.append(self.id)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = perf_counter()
        self.recorder.stack.pop()

    @property
    def seconds(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Spans kept in memory for the whole pass (single-threaded)."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.request = 0

    def span(self, name: str, **attributes: object) -> Span:
        span = Span(self, name, attributes)
        self.spans.append(span)
        return span

    def graft(self, parent: Span, name: str, start: float, seconds: float) -> None:
        """Attach a child whose duration was measured by the callee."""
        span = self.span(name, grafted=True)
        span.parent, span.start, span.end = parent.id, start, start + max(0.0, seconds)

    def next_request(self) -> None:
        self.request += 1

    def durations(self) -> Dict[str, List[float]]:
        by_name: Dict[str, List[float]] = {}
        for span in self.spans:
            by_name.setdefault(span.name, []).append(span.seconds)
        return by_name

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, median time, and self time (the span minus
        the part of it its child spans cover)."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.seconds
        rows: Dict[str, List[Tuple[float, float]]] = {}
        for span in self.spans:
            own = max(0.0, span.seconds - covered[span.id])
            rows.setdefault(span.name, []).append((span.seconds, own))
        return {
            name: {
                "calls": len(pairs),
                "median_us": statistics.median(p[0] for p in pairs) * 1e6,
                "self_median_us": statistics.median(p[1] for p in pairs) * 1e6,
                "self_total_ms": sum(p[1] for p in pairs) * 1e3,
            }
            for name, pairs in sorted(rows.items())
        }

    def dump(self, path, origin: float, **header: object) -> None:
        document = dict(header)
        document["clock"] = "seconds since the traced pass began"
        document["spans"] = [
            {
                "id": span.id,
                "name": span.name,
                "start": round(span.start - origin, 7),
                "end": round(span.end - origin, 7),
                "parent": span.parent,
                "request": span.request,
                **({"attributes": span.attributes} if span.attributes else {}),
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(document) + "\n")


# ----------------------------------------------------------------------
# The walk
# ----------------------------------------------------------------------
class Walker:
    """``publish()`` taken apart into the public calls it is made of."""

    def __init__(self, deployment: Deployment, recorder: SpanRecorder):
        self.recorder = recorder
        self.service = deployment.service
        self.system = self.service.system
        self.configuration = deployment.configuration
        self.schema = deployment.configuration.relational_schema
        self.template = self.service.executor.backend
        self.misses = 0
        self.chase_steps: List[int] = []
        self.q_errors: List[float] = []
        self.route_modes: Dict[str, int] = {}

    def publish(self, query) -> Sequence[Tuple[object, ...]]:
        recorder, service, system = self.recorder, self.service, self.system
        recorder.next_request()
        missed = False
        with recorder.span("publish", query=query.name):
            with recorder.span("plan_cache.lookup"):
                key = (self.configuration.version, query.fingerprint(), system.cb_config.minimize)
                reformulation = service.plan_cache.get(key)
            if reformulation is None:
                missed = True
                with recorder.span("reformulate") as span:
                    reformulation = system.reformulate(query)
                self._graft_engine_phases(span, reformulation)
            with recorder.span("plan_for"):
                plan = service.plan_for(reformulation)
            if service.pool is not None:
                rows = self._execute_pooled(plan)
            else:
                rows = self._execute_routed(plan)
        if missed:
            self.misses += 1
            self.chase_steps.append(reformulation.chase_steps)
            with recorder.span("probe.engine.compile"):
                system.compile_query(query)
            with recorder.span("probe.cost.rank"):
                system.cost_model.rank(reformulation.minimal)
        with recorder.span("probe.storage.sqlite.render"):
            render_sql(plan, self.schema)
        estimate = getattr(reformulation.cost_estimate, "cardinality", None)
        if estimate is not None:
            high, low = max(estimate, len(rows), 1.0), max(min(estimate, len(rows)), 1.0)
            self.q_errors.append(high / low)
        return rows

    def _graft_engine_phases(self, span: Span, reformulation) -> None:
        """The engine times its own phases; lay them inside the span the way
        the service does, after whatever preceded the engine."""
        chase = reformulation.time_to_universal_plan
        lead = max(0.0, span.seconds - reformulation.time_to_best)
        self.recorder.graft(span, "chase", span.start + lead, chase)
        self.recorder.graft(
            span, "backchase", span.start + lead + chase, reformulation.time_to_best - chase
        )

    def _execute_pooled(self, plan):
        recorder, pool = self.recorder, self.service.pool
        with recorder.span("pool.acquire"):
            backend = pool.acquire(
                timeout=self.service.checkout_timeout, min_lsn=self.service.mutation_log.lsn
            )
        try:
            with recorder.span("execute", engine=backend.backend_name):
                return backend.execute(plan, distinct=True)
        finally:
            with recorder.span("pool.release"):
                pool.release(backend)

    def _execute_routed(self, plan):
        recorder, service = self.recorder, self.service
        with recorder.span("route"):
            route = self.template.route_plan(plan)
        for _disjunct, decision in route.decisions:
            self.route_modes[decision.mode] = self.route_modes.get(decision.mode, 0) + 1
        acquired = []
        try:
            children = {}
            for shard in route.needed_shards:
                with recorder.span("pool.acquire", shard=shard):
                    connection = service.shard_pools[shard].acquire(
                        timeout=service.checkout_timeout,
                        min_lsn=service.shard_logs[shard].lsn,
                    )
                acquired.append((shard, connection))
                children[shard] = connection
            with recorder.span("execute_routed"):
                return self.template.execute_routed(route, plan, True, children)
        finally:
            for shard, connection in acquired:
                with recorder.span("pool.release", shard=shard):
                    service.shard_pools[shard].release(connection)


def traced_update(recorder: SpanRecorder, service, changeset) -> Tuple[bool, int]:
    """One ``update()`` under a span; returns (ok, log bytes it added)."""
    recorder.next_request()
    log = service.mutation_log
    before = log.stats().size_bytes
    with recorder.span("update", changes=len(changeset.changes)) as span:
        try:
            service.update(changeset)
            ok = True
        except Exception:  # counted as a failed operation; the pass carries on
            traceback.print_exc()
            ok = False
    if ok:
        for child in service.last_trace.root.children:
            if child.name in ("apply", "log.append"):
                recorder.graft(span, child.name, child.start, child.duration)
    return ok, log.stats().size_bytes - before


def user_bytes(changeset) -> int:
    """The payload a client handed over: the text of every written value."""
    return sum(
        len(str(value))
        for change in changeset.changes
        for row in change.inserts + change.deletes
        for value in row
    )


def pool_totals(service) -> Dict[str, int]:
    pools = [service.pool] if service.pool is not None else list(service.shard_pools)
    stats = [pool.stats() for pool in pools]
    return {
        "checkouts": sum(s.checkouts for s in stats),
        "wait_count": sum(s.wait_count for s in stats),
        "entries_replayed": sum(s.entries_replayed for s in stats),
    }


def fragment_fetches(service) -> int:
    """Fragments the sharded store fetched for gather-mode execution."""
    if service.pool is not None:
        return 0
    return sum(service.executor.backend.stats().gather_fetches_per_shard)


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
class PairedPublisher:
    """Sends every publish down both paths and checks that they agree.

    Which path goes first is a seeded coin toss: the first one pays for a
    plan-cache miss or a pool catch-up, and neither path should
    systematically be the one that does.
    """

    def __init__(self, deployment: Deployment, seed: int):
        self.deployment = deployment
        self.service = deployment.service
        self.queries = deployment.queries
        self.expected = workloads.expected_digests(deployment.queries)
        self.order = random.Random(f"{seed}/order")
        self.reset()

    def reset(self) -> None:
        self.recorder = SpanRecorder()
        self.walker = Walker(self.deployment, self.recorder)
        self.service_seconds: List[float] = []
        self.publishes = self.first_path_misses = self.mismatches = 0

    def publish(self, index: int) -> None:
        query, cache, walker = self.queries[index].query, self.service.plan_cache, self.walker
        paths = ("walk", "service") if self.order.random() < 0.5 else ("service", "walk")
        digests = {}
        for position, path in enumerate(paths):
            cache_misses, walk_misses = cache.misses, walker.misses
            if path == "walk":
                rows = walker.publish(query)
                missed = walker.misses != walk_misses
            else:
                started = perf_counter()
                rows = self.service.publish(query)
                self.service_seconds.append(perf_counter() - started)
                missed = cache.misses != cache_misses
            digests[path] = workloads.row_digest(rows)
            if missed and position == 0:
                self.first_path_misses += 1
        self.publishes += 1
        if digests["walk"] != digests["service"] or self.expected[index] not in (
            None, digests["walk"],
        ):
            self.mismatches += 1


def write_rounds(pair: PairedPublisher, feed, stream) -> Tuple[List[bool], int, int]:
    """The write workload's rounds, traced: returns each update's outcome,
    the bytes the log grew by and the bytes of values the updates carried."""
    recorder, service = pair.recorder, pair.service
    acknowledged: List[bool] = []
    log_bytes = payload_bytes = 0
    for number, changeset in enumerate(feed.changesets, start=1):
        ok, grown = traced_update(recorder, service, changeset)
        acknowledged.append(ok)
        log_bytes += grown
        payload_bytes += user_bytes(changeset)
        for _ in range(workloads.ROUND_PUBLISHES):
            pair.publish(next(stream))
        if number % workloads.CHECKPOINT_EVERY == 0 or number == len(feed.changesets):
            recorder.next_request()
            with recorder.span("checkpoint"):
                service.checkpoint()
    return acknowledged, log_bytes, payload_bytes


def client_scaling(deployment: Deployment, seed: int, seconds: float) -> Tuple[float, float]:
    """The closed loop at one client and at two, harness tracing off:
    returns (rate at 2 / rate at 1, share of 2-client checkouts that waited)."""
    rates = []
    for clients in (1, 2):
        before = pool_totals(deployment.service)
        journal, start, end = harness.run_window(
            deployment, seed, seconds, warmup=seconds / 4, clients=clients
        )
        rates.append(harness.block_statistics(journal.publishes, start, end, 1)[0]["per_s"])
        after = pool_totals(deployment.service)
    waited = (after["wait_count"] - before["wait_count"]) / max(
        1, after["checkouts"] - before["checkouts"]
    )
    return rates[1] / rates[0], waited


def run(spec: WorkloadSpec, seed: int, seconds: float) -> Dict[str, object]:
    """The traced run: every per-layer metric of *spec*."""
    scratch = harness.scratch_directory(spec.name)
    deployment, _timings = harness.deploy_repeatedly(spec, seed, scratch, 1)
    try:
        service = deployment.service
        gc.collect()
        gc.freeze()
        scaling = wait_share = 0.0
        if not spec.writes:
            scaling, wait_share = client_scaling(deployment, seed, max(0.5, seconds / 4))

        pair = PairedPublisher(deployment, seed)
        stream = workloads.query_stream(spec, len(deployment.queries), seed, 0)
        # Settle both paths (pool clones, statement caches) before recording.
        for _ in range(40 if spec.mix == workloads.CHURN else 2 * len(deployment.queries)):
            pair.publish(next(stream))
        pair.reset()
        recorder = pair.recorder

        acknowledged: List[bool] = []
        log_bytes = payload_bytes = 0
        engine_before = service.system.engine_invocations
        pools_before = pool_totals(service)
        fetches_before = fragment_fetches(service)
        origin = perf_counter()
        if spec.writes:
            feed = workloads.UpdateStream(service.executor.backend, seed)
            feed.ensure(spec.trace_ops)
            acknowledged, log_bytes, payload_bytes = write_rounds(pair, feed, stream)
        else:
            for _ in range(spec.trace_ops):
                pair.publish(next(stream))
        engine_entries = service.system.engine_invocations - engine_before
        replayed = pool_totals(service)["entries_replayed"] - pools_before["entries_replayed"]
        # Both paths ran every plan once, so the store fetched twice as much.
        fetches = (fragment_fetches(service) - fetches_before) // 2

        state_errors: List[str] = []
        reopen_seconds = 0.0
        if spec.writes:
            state_errors, reopen_seconds = harness.durable_state_errors(
                deployment, feed, acknowledged
            )
    finally:
        deployment.close()
        shutil.rmtree(scratch, ignore_errors=True)
    for error in state_errors:
        print(f"durable state: {error}", file=sys.stderr)

    trace_path = harness.OUT_DIR / f"trace-{spec.name}.json"
    recorder.dump(
        trace_path, origin, workload=spec.name, seed=seed, parameters=spec.parameters()
    )

    walker = pair.walker
    values = dict.fromkeys(LAYER_UNITS, 0.0)
    durations = recorder.durations()
    for name, (layer, scale) in SPAN_METRICS.items():
        if name in durations:
            values[layer] = statistics.median(durations[name]) * scale
    service_p50 = statistics.median(pair.service_seconds)
    walk_p50 = statistics.median(durations["publish"])
    q_errors = sorted(walker.q_errors)
    values.update(
        {
            "serve.plan_cache.hit_ratio": 1.0 - pair.first_path_misses / pair.publishes,
            "serve.pool.wait_share": wait_share,
            "serve.pool.catchup_entries": replayed,
            "serve.unattributed_us": (service_p50 - walk_p50) * 1e6,
            "serve.client_scaling": scaling,
            "serve.publish_p50_ms": service_p50 * 1e3,
            "engine.invocations": engine_entries,
            "shard.fragment_fetches": fetches,
            "replica.recovery_ms": reopen_seconds * 1e3,
            "bench.trace_overhead_ratio": walk_p50 / service_p50,
        }
    )
    if walker.chase_steps:
        values["engine.chase_steps"] = statistics.median(walker.chase_steps)
    if q_errors:
        values["cost.q_error_p50"] = percentile(q_errors, 0.50)
        values["cost.q_error_p95"] = percentile(q_errors, 0.95)
    if payload_bytes:
        values["replica.log_bytes_per_user_byte"] = log_bytes / payload_bytes
    for mode, count in walker.route_modes.items():
        values[f"shard.mode_counts.{mode}"] = count

    failed = pair.mismatches + acknowledged.count(False)
    return {
        "workload": spec.name,
        "seed": seed,
        "parameters": spec.parameters(),
        "correct": failed == 0 and not state_errors,
        "attempted": 2 * pair.publishes + len(acknowledged),
        "failed": failed,
        "metrics": {name: metric(values[name], unit) for name, unit in LAYER_UNITS.items()},
        "reported": {
            "trace_file": str(trace_path.relative_to(harness.OUT_DIR.parent.parent)),
            "traced_publishes": pair.publishes,
            "spans": len(recorder.spans),
            "layers": recorder.layer_table(),
        },
    }
