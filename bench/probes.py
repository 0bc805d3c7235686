"""The paper's rows and the one-off layer probes of ``python3 -m bench trace``.

None of these depend on a workload's traffic, so they are measured once,
in a process of their own, and reported beside the paper's figure where
the paper gives one.  They are reported, never gated.
"""

from __future__ import annotations

import shutil
import statistics
from time import perf_counter
from typing import Callable, Dict, List

from repro.core import MarsExecutor, MarsSystem
from repro.plan import PlanStore, plan_identity
from repro.workloads import star, xmark
from repro.workloads.star import StarParameters

from . import harness, workloads
from .harness import metric

STAR_CORNERS = range(3, 8)
EXECUTION_REPEATS = 5
#: E6b of ``benchmarks/test_bench_xmark.py``: small enough for the naive
#: evaluator of the original queries.
SPEEDUP_INSTANCE = xmark.XMarkParameters(items_per_region=15, people=30, closed_auctions=40)


def timed(call: Callable[[], object]) -> float:
    started = perf_counter()
    call()
    return perf_counter() - started


def median_of(repeats: int, call: Callable[[], object]) -> float:
    return statistics.median(timed(call) for _ in range(repeats))


def engine_rows(rows: Dict[str, object]) -> Dict[str, object]:
    """Cold C&B per xmark query (a fresh system each) and the fig-5 star
    sweep; returns each query's best plan for the probes below."""
    plans = {}
    cold: List[float] = []
    for query in xmark.query_suite():
        system = MarsSystem(xmark.build_configuration(with_instance=False))
        started = perf_counter()
        plans[query.name] = system.reformulate(query).best
        seconds = perf_counter() - started
        cold.append(seconds)
        rows[f"engine.cold_ms.{query.name}"] = metric(seconds * 1e3, "ms")
    rows["engine.xmark_suite_mean_ms"] = dict(
        metric(statistics.mean(cold) * 1e3, "ms"),
        paper="about 350 ms per query on 2003 hardware (section 4.2)",
    )
    for corners in STAR_CORNERS:
        parameters = StarParameters(corners=corners)
        system = MarsSystem(star.build_configuration(parameters))
        result = system.reformulate(star.client_query(parameters))
        note = "figure 5: both curves grow with NC and stay within seconds"
        rows[f"engine.star_nc{corners}_initial_ms"] = dict(
            metric(result.time_to_initial * 1e3, "ms"), paper=note
        )
        rows[f"engine.star_nc{corners}_best_ms"] = dict(
            metric(result.time_to_best * 1e3, "ms"), paper=note
        )
    return plans


def execution_rows(rows: Dict[str, object], plans: Dict[str, object]) -> None:
    """Original vs reformulated execution — and the equivalence contract:
    the reformulation, the naive evaluation of the original query and the
    benchmark's own document oracle must all give the same rows."""
    configuration = xmark.build_configuration(SPEEDUP_INSTANCE)
    oracle = workloads.DocumentOracle(
        configuration.public_documents[xmark.AUCTION_DOCUMENT]
    )
    executor = MarsExecutor(configuration, backend="sqlite")
    try:
        for entry in oracle.suite():
            comparison = executor.compare(entry.query, plans[entry.query.name], repeat=3)
            if not comparison.answers_match:
                raise AssertionError(f"{entry.query.name}: reformulation differs from the original")
            if set(map(tuple, comparison.original_rows)) != entry.expected:
                raise AssertionError(f"{entry.query.name}: document oracle differs from the original")
            rows[f"paper.exec_speedup.{entry.query.name}"] = dict(
                metric(comparison.speedup, "ratio"),
                paper="reformulated plans beat the originals (section 4.2)",
                base_ms=comparison.original_seconds * 1e3,
            )
    finally:
        executor.close()


def storage_rows(rows: Dict[str, object], plans: Dict[str, object]) -> None:
    """One plan, one engine, nothing else: ``backend.execute`` at scale 8."""
    configuration = xmark.build_configuration(workloads.xmark_parameters(8, 11))
    for engine in ("sqlite", "memory"):
        executor = MarsExecutor(configuration, backend=engine)
        try:
            for name, plan in plans.items():
                seconds = median_of(EXECUTION_REPEATS, lambda: executor.backend.execute(plan))
                rows[f"storage.{engine}.execute_us.{name}"] = metric(seconds * 1e6, "us")
        finally:
            executor.close()


def plan_store_rows(rows: Dict[str, object], directory) -> None:
    """What a restart costs with the plan store, against ``engine.cold_ms``."""
    suite = xmark.query_suite()
    first = MarsSystem(
        xmark.build_configuration(with_instance=False), plan_store=PlanStore(directory)
    )
    for query in suite:
        first.reformulate(query)
    store = first.plan_store
    identities = [
        plan_identity(query.fingerprint_digest(), first.configuration_digest, True)
        for query in suite
    ]
    rows["plan.identity_us"] = metric(
        statistics.median(
            timed(lambda: plan_identity(q.fingerprint_digest(), first.configuration_digest, True))
            for q in suite
        ) * 1e6,
        "us",
    )
    artifacts = [store.load(identity) for identity in identities]
    rows["plan.store_load_us"] = metric(
        statistics.median(timed(lambda: store.load(i)) for i in identities) * 1e6, "us"
    )
    rows["plan.store_save_us"] = metric(
        statistics.median(
            timed(lambda: store.save(i, a)) for i, a in zip(identities, artifacts)
        ) * 1e6,
        "us",
    )
    restarted = MarsSystem(
        xmark.build_configuration(with_instance=False), plan_store=PlanStore(directory)
    )
    seconds = timed(lambda: [restarted.reformulate(query) for query in suite])
    if restarted.engine_invocations:
        raise AssertionError("a restarted system re-entered the C&B engine")
    rows["plan.restart_warm_ms"] = metric(seconds * 1e3, "ms")


def observability_rows(rows: Dict[str, object], directory) -> None:
    """What the service's own telemetry costs a cheap publish: defaults
    against ``tracing=False``, and every sink on against the defaults.
    The three services are measured interleaved, query by query."""
    spec = workloads.WORKLOADS["plan-churn"]
    configuration = workloads.build_configuration(spec, 11)
    queries = xmark.query_suite()[:-1]
    services = {
        "off": workloads.open_service(spec, configuration, tracing=False),
        "defaults": workloads.open_service(spec, configuration),
        "all": workloads.open_service(
            spec, configuration, audit_dir=str(directory), admin_port=0,
            slo_target_p99=1.0, profile_sample=10,
        ),
    }
    try:
        samples: Dict[str, List[float]] = {name: [] for name in services}
        for service in services.values():
            service.warm(queries)
        for cycle in range(60):
            for query in queries:
                for name, service in services.items():
                    seconds = timed(lambda: service.publish(query))
                    if cycle >= 10:
                        samples[name].append(seconds)
    finally:
        for service in services.values():
            service.close()
    p50 = {name: statistics.median(values) for name, values in samples.items()}
    rows["obs.overhead_ratio"] = dict(
        metric(p50["defaults"] / p50["off"], "ratio"),
        base_ms=p50["off"] * 1e3, budget=1.05,
    )
    rows["obs.all_sinks_overhead_ratio"] = dict(
        metric(p50["all"] / p50["defaults"], "ratio"),
        base_ms=p50["defaults"] * 1e3, budget=1.05,
    )


def run() -> Dict[str, object]:
    rows: Dict[str, object] = {}
    scratch = harness.scratch_directory("probes")
    try:
        plans = engine_rows(rows)
        execution_rows(rows, plans)
        storage_rows(rows, plans)
        plan_store_rows(rows, scratch / "plans")
        observability_rows(rows, scratch / "audit")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return rows
