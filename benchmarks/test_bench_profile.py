"""Profiling overhead: 1-in-10 sampled profiling must cost < 5% on publish.

The bargain of the profile package mirrors the tracer's: *sampled*
per-operator profiling is affordable because the sampling decision is
made before execution — nine publishes in ten run an unprofiled tree
(one ``profiled`` flag read per operator site, no estimate arithmetic,
no operator node), and only the sampled tenth pays for distinct-count
selectivities and the operator nodes.

Two numbers are produced, following ``test_bench_obs`` exactly:

* **The asserted headline** — publish latency with ``profile_sample=10``
  vs. ``profile_sample=0`` on the paper's benchmark workload (xmark at
  the backend sweep's top scale), warmed plan cache, interleaved
  min-of-trials, best of up to three attempts.  The overhead must stay
  under **5%**.
* **The reported worst case** — the same comparison on the tiny medical
  workload, where the sampled publish's estimate arithmetic is
  proportionally largest.  Printed, not asserted.

Methodology notes in ``benchmarks/test_bench_obs.py`` apply verbatim:
both services warm first, trials alternate (base, profiled, base,
profiled, ...), and the minimum trial per service is compared so
scheduler noise and GC pauses are discarded rather than averaged in.
"""

from repro.obs import NULL_SPAN, current_span, timer
from repro.serve import PublishingService
from repro.workloads import medical, xmark

#: The top xmark scale of the backend benchmark sweep (scale factor 8).
TOP_SCALE = 8
MAX_OVERHEAD = 0.05
#: The sampling rate the headline asserts: one profiled publish in ten.
SAMPLE = 10


def top_xmark_configuration(scale=TOP_SCALE):
    parameters = xmark.XMarkParameters(
        items_per_region=8 * scale,
        people=15 * scale,
        closed_auctions=20 * scale,
    )
    return xmark.build_configuration(parameters)


def _measure_pair(make_service, queries, trials, rounds_per_trial, warmup):
    """Interleaved min-of-trials seconds-per-publish for (base, profiled)."""
    services = {}
    for sample in (0, SAMPLE):
        service = services[sample] = make_service(sample)
        for query in queries:
            for _ in range(warmup):
                service.publish(query)
    assert services[0].last_profile is None
    assert services[SAMPLE].last_profile is not None
    best = {0: None, SAMPLE: None}
    try:
        for _ in range(trials):
            for sample in (0, SAMPLE):
                service = services[sample]
                clock = timer()
                for _ in range(rounds_per_trial):
                    for query in queries:
                        service.publish(query)
                seconds = clock.stop()
                previous = best[sample]
                best[sample] = (
                    seconds if previous is None else min(previous, seconds)
                )
    finally:
        for service in services.values():
            service.close()
    publishes = rounds_per_trial * len(queries)
    return best[0] / publishes, best[SAMPLE] / publishes


def _report(title, base, profiled):
    overhead = profiled / base - 1.0
    print(
        f"\n{title}:"
        f"\n  profiling off:     {base * 1e6:8.1f} us/publish"
        f"\n  1-in-{SAMPLE} profiling: {profiled * 1e6:8.1f} us/publish"
        f"\n  overhead:          {overhead * 100:8.2f} % "
        f"({(profiled - base) * 1e6:+.1f} us/publish)"
    )
    return overhead


class TestProfilingOverhead:
    def test_sampled_profiling_publish_overhead_under_five_percent(self):
        """The acceptance criterion: 1-in-10 sampled profiling adds < 5%
        to the warmed publish path on the paper's benchmark workload."""
        queries = [xmark.query_item_names()] + list(xmark.query_suite())[:3]
        overhead = None
        for attempt in range(3):
            base, profiled = _measure_pair(
                lambda sample: PublishingService(
                    top_xmark_configuration(),
                    pool_size=2,
                    profile_sample=sample,
                ),
                queries,
                trials=20,
                rounds_per_trial=10,
                warmup=5,
            )
            measured = _report(
                f"Publish-path profiling overhead, attempt {attempt + 1} "
                f"(xmark scale {TOP_SCALE}, sample=1/{SAMPLE})",
                base,
                profiled,
            )
            overhead = measured if overhead is None else min(overhead, measured)
            if overhead < MAX_OVERHEAD:
                break
        assert overhead < MAX_OVERHEAD, (
            f"1-in-{SAMPLE} sampled profiling cost {overhead:.1%} on the "
            f"warmed publish path on every attempt; the budget is "
            f"{MAX_OVERHEAD:.0%}"
        )

    def test_toy_query_overhead_is_reported(self):
        """The worst case: the sampled tenth's estimate arithmetic against
        the cheapest possible publish.  Reported for visibility, not
        asserted — at sub-200us per publish the comparison is noise."""
        base, profiled = _measure_pair(
            lambda sample: PublishingService(
                medical.build_configuration(),
                pool_size=2,
                profile_sample=sample,
            ),
            [medical.client_query()],
            trials=15,
            rounds_per_trial=200,
            warmup=50,
        )
        _report("Toy-workload floor (medical, reported only)", base, profiled)

    def test_disabled_profiling_takes_the_null_path(self):
        """The guard the overhead numbers rest on: with sampling off no
        buffer exists, publishes leave no profile behind, and the ambient
        node stays the null node, which records no operator."""
        with PublishingService(
            medical.build_configuration(), pool_size=1, profile_sample=0
        ) as service:
            for _ in range(3):
                service.publish(medical.client_query())
            assert service.profile_buffer is None
            assert service.last_profile is None
            assert current_span() is NULL_SPAN
            assert not NULL_SPAN.profiled
