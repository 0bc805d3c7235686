"""E6 -- feasibility of reformulation on the XMark-style scenario.

The paper runs realistic queries and views derived from the XMark benchmark
and reports that reformulation stays well within feasibility range, about
350 ms on average per query on 2003 hardware, and that the reformulated
queries (exploiting the redundant storage) execute much faster than the
originals.  We reproduce the query mix over the auction configuration and
report per-query and average reformulation times, plus the execution
comparison on a generated instance.
"""

import pytest

from repro.core import MarsExecutor, MarsSystem
from repro.workloads import xmark


@pytest.fixture(scope="module")
def system():
    return MarsSystem(xmark.build_configuration(with_instance=False))


def reformulate_suite(system):
    return [system.reformulate(query) for query in xmark.query_suite()]


def test_xmark_suite_benchmark(benchmark, system):
    results = benchmark.pedantic(reformulate_suite, args=(system,), iterations=1, rounds=2)
    assert all(result.found for result in results)


def test_report_per_query_times(system):
    print("\nE6: XMark-style reformulation feasibility")
    print(f"  {'query':<20s} {'time (ms)':>10s} {'best uses':<40s}")
    times = []
    for query in xmark.query_suite():
        result = system.reformulate(query)
        assert result.found, query.name
        milliseconds = result.time_to_best * 1000
        times.append(milliseconds)
        uses = ", ".join(sorted(result.best.relation_names()))
        print(f"  {query.name:<20s} {milliseconds:10.1f} {uses[:60]:<40s}")
    average = sum(times) / len(times)
    print(f"  {'AVERAGE':<20s} {average:10.1f}")
    # Feasibility claim: the average stays under the paper's own figure of
    # about 350 ms per query (measured here: a few tens of milliseconds).
    assert average < 350.0


def test_report_execution_comparison():
    configuration = xmark.build_configuration(
        xmark.XMarkParameters(items_per_region=15, people=30, closed_auctions=40),
        with_instance=True,
    )
    system = MarsSystem(configuration)
    executor = MarsExecutor(configuration)
    print("\nE6b: execution of original vs reformulated XMark queries")
    for query in (
        xmark.query_item_names(),
        xmark.query_item_prices(),
        xmark.query_person_cities(),
    ):
        result = system.reformulate(query)
        comparison = executor.compare(query, result.best)
        assert comparison.answers_match
        print(
            f"  {query.name:<20s} original {comparison.original_seconds*1000:8.1f} ms"
            f"   reformulated {comparison.reformulated_seconds*1000:8.1f} ms"
            f"   speedup {comparison.speedup:6.1f}x"
        )
