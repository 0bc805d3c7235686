"""Backend comparison: in-memory hash joins vs. real SQLite execution.

The paper's MARS ships its reformulations to an RDBMS; this benchmark
measures what that buys.  For the star and XMark workloads at increasing
scale factors we reformulate once, then execute the best reformulation on
the ``memory`` backend (the chase's compiled hash-join plan over Python
lists) and on the
``sqlite`` backend (parameterized SQL on real tables with indexes on the
join columns), reporting per-backend load and execution times.
"""

import time

import pytest

from repro.core import MarsExecutor, MarsSystem
from repro.workloads import star, xmark
from repro.workloads.star import StarParameters

BACKENDS = ("memory", "sqlite")


def timed_executor(configuration, backend):
    start = time.perf_counter()
    executor = MarsExecutor(configuration, backend=backend)
    return executor, time.perf_counter() - start


def best_execution_ms(executor, reformulation, rounds=3):
    rows = None
    start = time.perf_counter()
    for _ in range(rounds):
        rows = executor.execute_reformulation(reformulation)
    elapsed = (time.perf_counter() - start) / rounds
    return rows, elapsed * 1000.0


def star_case(scale):
    parameters = StarParameters(
        corners=3, hub_count=30 * scale, corner_size=25 * scale
    )
    configuration = star.build_configuration(parameters, with_instance=True)
    return configuration, star.client_query(parameters)


def xmark_case(scale):
    parameters = xmark.XMarkParameters(
        items_per_region=8 * scale, people=15 * scale, closed_auctions=20 * scale
    )
    configuration = xmark.build_configuration(parameters)
    return configuration, xmark.query_buyers_with_items()


CASES = {"star": star_case, "xmark": xmark_case}


class TestBackendComparison:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_star_execution_benchmark(self, benchmark, backend):
        configuration, query = star_case(2)
        system = MarsSystem(configuration)
        result = system.reformulate(query)
        assert result.found
        executor = MarsExecutor(configuration, backend=backend)
        benchmark.pedantic(
            executor.execute_reformulation,
            args=(result.best,),
            iterations=1,
            rounds=3,
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_xmark_execution_benchmark(self, benchmark, backend):
        configuration, query = xmark_case(2)
        system = MarsSystem(configuration)
        result = system.reformulate(query)
        assert result.found
        executor = MarsExecutor(configuration, backend=backend)
        benchmark.pedantic(
            executor.execute_reformulation,
            args=(result.best,),
            iterations=1,
            rounds=3,
        )

    def test_report_backend_scaling(self, full_sweep):
        scales = (1, 2, 4, 8) if full_sweep else (1, 2, 4)
        print("\nBackend execution comparison (load = build instance data)")
        header = (
            f"  {'workload':<8s} {'scale':>5s} "
            + "".join(
                f"{name + ' load (ms)':>18s} {name + ' exec (ms)':>18s}"
                for name in BACKENDS
            )
            + f" {'agree':>6s}"
        )
        print(header)
        for workload, case in CASES.items():
            for scale in scales:
                configuration, query = case(scale)
                system = MarsSystem(configuration)
                result = system.reformulate(query)
                assert result.found
                cells = []
                answers = []
                for backend in BACKENDS:
                    executor, load_seconds = timed_executor(configuration, backend)
                    rows, execution_ms = best_execution_ms(executor, result.best)
                    answers.append(sorted(map(repr, rows)))
                    cells.append(f"{load_seconds * 1000.0:18.1f} {execution_ms:18.2f}")
                    executor.close()
                agree = all(answer == answers[0] for answer in answers)
                assert agree, f"{workload}@{scale}: backends disagree"
                print(
                    f"  {workload:<8s} {scale:>5d} " + "".join(cells) + f" {agree!s:>6s}"
                )

    def test_report_sqlite_plans(self):
        """Show that SQLite actually uses the indexes built on join columns
        (the ``engine_plan`` rows of the profiled run's statement node)."""
        configuration, query = xmark_case(1)
        system = MarsSystem(configuration)
        result = system.reformulate(query)
        executor = MarsExecutor(configuration, backend="sqlite")
        plan = executor.explain_reformulation(result.best)
        print("\n" + plan)
        assert "USING INDEX" in plan or "SEARCH" in plan
        executor.close()
