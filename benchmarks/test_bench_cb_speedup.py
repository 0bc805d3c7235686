"""E2 -- speedup of the new C&B implementation over the original one.

The paper reports that the new set-oriented chase implementation is 30-100x
(at least two orders of magnitude in the extended version) faster than the
original tuple-at-a-time prototype.  We compare the two homomorphism-search
strategies on the same reformulation problems (relational star queries with
views) and report the ratio; absolute numbers differ from 2003 hardware but
the naive strategy must lose by a growing factor.
"""

import time

import pytest

from repro.engine import ChaseConfig, ChaseEngine
from repro.logical import ConjunctiveQuery, RelationalAtom, Variable, view_inclusion_dependencies


def relational_star_problem(corners: int):
    """A relational star query with one materialized view per corner pair."""
    key = Variable("k")
    hub_terms = [key] + [Variable(f"a{i}") for i in range(1, corners + 1)]
    atoms = [RelationalAtom("Hub", tuple(hub_terms))]
    head = [key]
    for index in range(1, corners + 1):
        b = Variable(f"b{index}")
        atoms.append(RelationalAtom(f"Corner{index}", (Variable(f"a{index}"), b)))
        head.append(b)
    query = ConjunctiveQuery(f"RelStar{corners}", head, atoms)
    dependencies = []
    for index in range(1, corners):
        view_body = [
            RelationalAtom("Hub", tuple(hub_terms)),
            RelationalAtom(f"Corner{index}", (Variable(f"a{index}"), Variable(f"b{index}"))),
            RelationalAtom(
                f"Corner{index+1}", (Variable(f"a{index+1}"), Variable(f"b{index+1}"))
            ),
        ]
        dependencies.extend(
            view_inclusion_dependencies(
                f"W{index}", [key, Variable(f"b{index}"), Variable(f"b{index+1}")], view_body
            )
        )
    return query, dependencies


def chase_time(strategy: str, corners: int) -> float:
    query, dependencies = relational_star_problem(corners)
    engine = ChaseEngine(ChaseConfig(strategy=strategy))
    start = time.perf_counter()
    result = engine.chase(query, dependencies)
    elapsed = time.perf_counter() - start
    assert result.branches
    return elapsed


class TestCBSpeedup:
    @pytest.mark.parametrize("corners", [4, 6])
    def test_join_tree_strategy(self, benchmark, corners):
        benchmark.pedantic(chase_time, args=("joinTree", corners), iterations=1, rounds=3)

    @pytest.mark.parametrize("corners", [4, 6])
    def test_naive_strategy(self, benchmark, corners):
        benchmark.pedantic(chase_time, args=("naive", corners), iterations=1, rounds=1)

    def test_report_speedup_series(self):
        print("\nE2: naive vs set-oriented chase (relational star with views)")
        print(f"  {'corners':>8s} {'naive (ms)':>12s} {'joinTree (ms)':>14s} {'ratio':>8s}")
        ratios = []
        for corners in (3, 4, 5, 6):
            # Best of three: a single millisecond-scale reading is at the
            # mercy of the scheduler.
            naive = min(chase_time("naive", corners) for _ in range(3))
            fast = min(chase_time("joinTree", corners) for _ in range(3))
            ratio = naive / fast if fast > 0 else float("inf")
            ratios.append(ratio)
            print(
                f"  {corners:8d} {naive * 1000:12.2f} {fast * 1000:14.2f} {ratio:8.1f}"
            )
        # The new implementation must win, increasingly so on larger problems.
        assert ratios[-1] > 1.0
        assert max(ratios) >= min(ratios)
