"""Shared configuration for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation, or asserts one subsystem's overhead budget (the subsystems are
described in docs/ARCHITECTURE.md).  Benchmarks print the rows/series they
produce so that ``pytest benchmarks/ --benchmark-only -s`` doubles as the
experiment report; the repeatable publish/update benchmark with recorded
baselines is ``python3 -m bench`` (see bench/README.md).
"""

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--full-sweep",
        action="store_true",
        default=False,
        help="run the benchmark sweeps over the full parameter ranges",
    )


@pytest.fixture(scope="session")
def full_sweep(request):
    return request.config.getoption("--full-sweep")
