"""One untraced run of one workload: set-up, measured window, answer check.

The service is driven strictly through its public calls, at its
constructor defaults (the production shape, its own tracing included).
The loop is closed: each client sends its next request when the previous
one returns.
"""

from __future__ import annotations

import gc
import math
import resource
import shutil
import statistics
import sys
import threading
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core import MarsExecutor

from . import workloads
from .workloads import BenchQuery, UpdateStream, WorkloadSpec

#: ``setup_s`` is the median over repeated set-ups; the last one serves.
#: At least 3, and cheap set-ups (tens of milliseconds, so noisier) are
#: repeated for up to 2 s or 9 times.
SETUP_REPEATS = 3
SETUP_REPEATS_MOST = 9
SETUP_BUDGET_SECONDS = 2.0
#: The measured window is cut into this many equal blocks and each timing
#: metric is the median of its per-block values, so one disturbed stretch
#: (a noisy neighbour, a collection) cannot move the result.
BLOCKS = 5

#: Where a run may write: the durable log, result and trace files.
OUT_DIR = Path(__file__).resolve().parent / "out"


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an already sorted sample."""
    return ordered[max(1, math.ceil(len(ordered) * share)) - 1]


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Deployment:
    """A served workload: the service plus what the clients send it."""

    spec: WorkloadSpec
    configuration: object
    service: object
    queries: List[BenchQuery]
    log_dir: Optional[Path]
    setup_seconds: float

    def close(self) -> None:
        if not self.service.closed:
            self.service.close()


def deploy(spec: WorkloadSpec, seed: int, log_dir: Optional[Path]) -> Deployment:
    """Everything before the first timed operation, timed as one figure:
    data generation, backend build, statistics collection and ``warm()``."""
    started = perf_counter()
    configuration = workloads.build_configuration(spec, seed)
    service = workloads.open_service(spec, configuration, log_dir=log_dir)
    try:
        queries = workloads.workload_queries(spec, configuration)
        service.warm(workloads.warm_queries(spec, queries))
    except BaseException:
        service.close(force=True)
        raise
    seconds = perf_counter() - started
    return Deployment(spec, configuration, service, queries, log_dir, seconds)


def deploy_repeatedly(
    spec: WorkloadSpec, seed: int, scratch: Path, repeats: int = SETUP_REPEATS_MOST
) -> Tuple[Deployment, List[float]]:
    """Set up at most *repeats* times (see ``SETUP_REPEATS``); returns the
    last deployment and every timing."""
    timings: List[float] = []
    deployment = None
    while len(timings) < repeats and (
        len(timings) < SETUP_REPEATS or sum(timings) < SETUP_BUDGET_SECONDS
    ):
        if deployment is not None:
            deployment.close()
        log_dir = scratch / f"log-{len(timings)}" if spec.writes else None
        deployment = deploy(spec, seed, log_dir)
        timings.append(deployment.setup_seconds)
    return deployment, timings


def scratch_directory(name: str) -> Path:
    """A fresh private directory under ``bench/out`` for this run's files."""
    path = OUT_DIR / f"tmp-{name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
@dataclass
class Publish:
    """One ``publish()`` as the client saw it."""

    finished: float
    seconds: float
    query: int
    #: ``None`` when the call raised.
    digest: Optional[Tuple[int, int]]
    #: Write workload only: the round it ran in and the plan it was served.
    round: int = 0
    plan: object = None


@dataclass
class Update:
    finished: float
    seconds: float
    ok: bool


class Journal:
    """What the clients of one window did; appended to from their threads
    (``list.append`` is atomic), read once they have been joined."""

    def __init__(self) -> None:
        self.publishes: List[Publish] = []
        self.updates: List[Update] = []
        self.rounds = 0
        self.first_error: Optional[str] = None

    def note_error(self) -> None:
        if self.first_error is None:
            self.first_error = traceback.format_exc()


def _timed_publish(service, entry: BenchQuery, index: int, journal: Journal) -> Publish:
    started = perf_counter()
    try:
        rows = service.publish(entry.query)
    except Exception:  # a failed request is counted, the client carries on
        finished = perf_counter()
        journal.note_error()
        record = Publish(finished, finished - started, index, None)
    else:
        finished = perf_counter()
        record = Publish(finished, finished - started, index, workloads.row_digest(rows))
    journal.publishes.append(record)
    return record


def read_client(
    service, queries: Sequence[BenchQuery], stream: Iterator[int],
    stop_at: float, journal: Journal,
) -> None:
    for index in stream:
        record = _timed_publish(service, queries[index], index, journal)
        if record.finished >= stop_at:
            return


def write_round(
    service, queries: Sequence[BenchQuery], stream: Iterator[int],
    feed: UpdateStream, journal: Journal,
) -> float:
    """One round: 1 update, then 4 publishes; returns when it finished."""
    number = journal.rounds
    if number >= len(feed.changesets):
        feed.ensure(number + UpdateStream.CHUNK)
    changeset = feed.changesets[number]
    started = perf_counter()
    try:
        service.update(changeset)
    except Exception:
        journal.note_error()
        ok = False
    else:
        ok = True
    finished = perf_counter()
    journal.updates.append(Update(finished, finished - started, ok))
    for _ in range(workloads.ROUND_PUBLISHES):
        index = next(stream)
        record = _timed_publish(service, queries[index], index, journal)
        record.round = number
        if record.digest is not None:
            # Untimed: the reference store must run the plan that was served.
            record.plan = service.plan_for(service.reformulate(queries[index].query))
        finished = record.finished
    journal.rounds = number + 1
    if journal.rounds % workloads.CHECKPOINT_EVERY == 0:
        service.checkpoint()
    return finished


def write_client(service, queries, stream, feed, stop_at: float, journal: Journal) -> None:
    while write_round(service, queries, stream, feed, journal) < stop_at:
        pass


def run_window(
    deployment: Deployment, seed: int, seconds: float, warmup: float,
    clients: int, feed: Optional[UpdateStream] = None,
) -> Tuple[Journal, float, float]:
    """Warm up, then measure for *seconds*; returns the journal and the
    window's bounds.  Requests finishing inside the bounds are the sample."""
    spec = deployment.spec
    journal = Journal()
    window_start = perf_counter() + warmup
    window_end = window_start + seconds
    threads = []
    for client in range(clients):
        stream = workloads.query_stream(spec, len(deployment.queries), seed, client)
        if spec.writes:
            target, args = write_client, (
                deployment.service, deployment.queries, stream, feed, window_end, journal,
            )
        else:
            target, args = read_client, (
                deployment.service, deployment.queries, stream, window_end, journal,
            )
        threads.append(threading.Thread(target=target, args=args, daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return journal, window_start, window_end


# ----------------------------------------------------------------------
# Checking answers
# ----------------------------------------------------------------------
def wrong_reads(queries: Sequence[BenchQuery], publishes: Sequence[Publish]) -> int:
    """Publishes whose rows differ from the document oracle (or that raised)."""
    expected = workloads.expected_digests(queries)
    return sum(1 for record in publishes if record.digest != expected[record.query])


def wrong_reads_after_writes(
    deployment: Deployment, feed: UpdateStream, journal: Journal
) -> int:
    """Replay the rounds on a plain single SQLite store and compare.

    The stored views drift away from the document under random updates, so
    the expected answer of a publish is what *the plan it was served*
    returns on a store that applied the same change sets and nothing else
    — no replicas, no pool clones, no log replay.  An answer only changes
    when a table its plan reads was written, so results are memoized on
    the plan and those tables' versions.
    """
    reference = MarsExecutor(deployment.configuration, backend="sqlite")
    try:
        store = reference.backend
        versions: Dict[str, int] = {}
        memo: Dict[Tuple[int, Tuple[int, ...]], Tuple[int, int]] = {}
        wrong = 0
        applied = -1
        for record in journal.publishes:
            while applied < record.round:
                applied += 1
                changeset = feed.changesets[applied]
                if journal.updates[applied].ok:
                    store.apply(changeset)
                    for relation in changeset.relations():
                        versions[relation] = versions.get(relation, 0) + 1
            if record.digest is None:
                wrong += 1
                continue
            reads = sorted(record.plan.relation_names())
            key = (id(record.plan), tuple(versions.get(name, 0) for name in reads))
            if key not in memo:
                memo[key] = workloads.row_digest(store.execute(record.plan))
            if memo[key] != record.digest:
                wrong += 1
        return wrong
    finally:
        reference.close()


def multiset(rows) -> List[str]:
    return sorted(map(repr, rows))


def durable_state_errors(
    deployment: Deployment, feed: UpdateStream, acknowledged: Sequence[bool]
) -> Tuple[List[str], float]:
    """The write path's end-state contract; closes the deployment's service.

    The base tables must equal the update stream's own bookkeeping, and a
    service reopened on the same log directory must serve every
    acknowledged LSN: same tables, same head.  *acknowledged* says, update
    by update, whether it returned.  Returns the violations and how long
    the reopening (recovery) took.
    """
    errors: List[str] = []
    if not all(acknowledged):
        return [f"{acknowledged.count(False)} update(s) raised"], 0.0
    expected = feed.expected_tables(len(acknowledged))
    service = deployment.service
    head = service.stats().last_write_lsn
    for name, rows in expected.items():
        if multiset(service.executor.backend.rows(name)) != multiset(rows):
            errors.append(f"live table {name} differs from the update stream's state")
    service.close()
    started = perf_counter()
    reopened = workloads.open_service(
        deployment.spec, deployment.configuration, log_dir=deployment.log_dir
    )
    reopen_seconds = perf_counter() - started
    try:
        if reopened.stats().last_write_lsn != head:
            errors.append(
                f"reopened service is at LSN {reopened.stats().last_write_lsn}, "
                f"{head} was acknowledged"
            )
        for name, rows in expected.items():
            if multiset(reopened.executor.backend.rows(name)) != multiset(rows):
                errors.append(f"recovered table {name} lost acknowledged updates")
    finally:
        reopened.close()
    return errors, reopen_seconds


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def block_statistics(
    publishes: Sequence[Publish], start: float, end: float, blocks: int
) -> List[Dict[str, float]]:
    """Throughput and latency percentiles of each block of the window.

    A block's throughput is taken between its first and last completion,
    so it is a measured rate and not a count over a fixed length.
    """
    length = (end - start) / blocks
    per_block: List[List[Publish]] = [[] for _ in range(blocks)]
    for record in publishes:
        if start <= record.finished < end and record.digest is not None:
            per_block[min(blocks - 1, int((record.finished - start) / length))].append(record)
    rows = []
    for records in per_block:
        if len(records) < 2:
            continue
        records.sort(key=lambda record: record.finished)
        latencies = sorted(record.seconds for record in records)
        rows.append(
            {
                "samples": len(records),
                "per_s": (len(records) - 1) / (records[-1].finished - records[0].finished),
                "p50_ms": percentile(latencies, 0.50) * 1e3,
                "p95_ms": percentile(latencies, 0.95) * 1e3,
            }
        )
    if not rows:
        raise RuntimeError("too few publishes completed inside the measured window")
    return rows


def across_blocks(rows: Sequence[Dict[str, float]], key: str) -> float:
    return statistics.median(row[key] for row in rows)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(spec: WorkloadSpec, seed: int, seconds: float) -> Dict[str, object]:
    """The untraced run: every end-to-end metric of *spec*, answers checked.

    Latency is measured with one client, so that it is the service's own
    and not the interpreter lock's; throughput with the workload's client
    count.  A single-client workload gets both from one window.
    """
    scratch = scratch_directory(spec.name)
    deployment, setup_runs = deploy_repeatedly(spec, seed, scratch)
    client_counts = [1] if spec.clients == 1 else [1, spec.clients]
    share = seconds / len(client_counts)
    blocks = BLOCKS if share >= BLOCKS else 1
    windows: List[Tuple[Journal, float, float]] = []
    try:
        service = deployment.service
        feed = None
        if spec.writes:
            feed = UpdateStream(service.executor.backend, seed)
            feed.ensure(8 * UpdateStream.CHUNK)
        # Set-up garbage must not be traced (or freed) inside a window.
        gc.collect()
        gc.freeze()
        engine_before = service.system.engine_invocations
        for clients in client_counts:
            windows.append(
                run_window(
                    deployment, seed, share, warmup=max(0.1, 0.15 * share),
                    clients=clients, feed=feed,
                )
            )
        engine_entries = service.system.engine_invocations - engine_before
        journals = [journal for journal, _start, _end in windows]
        if spec.writes:
            wrong = wrong_reads_after_writes(deployment, feed, journals[0])
            state_errors, _reopen = durable_state_errors(
                deployment, feed, [update.ok for update in journals[0].updates]
            )
        else:
            wrong = sum(wrong_reads(deployment.queries, j.publishes) for j in journals)
            state_errors = []
    finally:
        deployment.close()
        shutil.rmtree(scratch, ignore_errors=True)
    for journal in journals:
        if journal.first_error:
            print(journal.first_error, file=sys.stderr)
    for error in state_errors:
        print(f"durable state: {error}", file=sys.stderr)

    # The first window has one client (latency), the last the workload's
    # client count (throughput); a single-client workload has just one.
    latency, throughput = (
        block_statistics(journal.publishes, start, end, blocks)
        for journal, start, end in (windows[0], windows[-1])
    )
    journal, start, end = windows[0]
    latencies = sorted(
        r.seconds for r in journal.publishes
        if start <= r.finished < end and r.digest is not None
    )
    updates = [u for u in journal.updates if start <= u.finished < end]
    attempted = sum(len(j.publishes) + len(j.updates) for j in journals)
    failed = wrong + sum(1 for j in journals for u in j.updates if not u.ok)
    reported: Dict[str, object] = {
        "publish_p99_ms": metric(percentile(latencies, 0.99) * 1e3, "ms"),
        "publish_samples": metric(len(latencies), "count"),
        "failed_ratio": metric(failed / attempted, "ratio"),
        "engine.invocations": metric(engine_entries, "count"),
        "setup_runs_s": setup_runs,
        "latency_blocks": latency,
        "throughput_blocks": throughput,
    }
    if updates:
        update_latencies = sorted(u.seconds for u in updates if u.ok)
        reported["update_per_s"] = metric(len(update_latencies) / (end - start), "ops/s")
        reported["update_p50_ms"] = metric(percentile(update_latencies, 0.50) * 1e3, "ms")
        reported["rounds"] = metric(journal.rounds, "count")
    return {
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "parameters": spec.parameters(),
        "correct": failed == 0 and not state_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "publish_per_s": metric(across_blocks(throughput, "per_s"), "ops/s"),
            "publish_p50_ms": metric(across_blocks(latency, "p50_ms"), "ms"),
            "publish_p95_ms": metric(across_blocks(latency, "p95_ms"), "ms"),
            "setup_s": metric(statistics.median(setup_runs), "s"),
            "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        },
        "reported": reported,
    }
