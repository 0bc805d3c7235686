"""Each ``MarsSystem`` plans with one ``CostModel``.

The backchase prunes with its monotone ``lower_bound``, the finished minimal
reformulations are ranked with its ``rank``, and ``attach_statistics`` swaps
its catalog: nothing the configuration compiled depends on statistics, so an
attach keeps all of it.  A revived estimator seam (``CostEstimator``,
``SimpleCostEstimator``, an ``estimator=`` keyword) or an attach that
recompiles fails here.
"""

import ast
import inspect
import re
import textwrap
from pathlib import Path

import pytest

from repro.core import MarsExecutor, MarsSystem
from repro.cost import CostModel, StatisticsCatalog
from repro.engine import BackchaseEngine, CBEngine
from repro.plan import canonical_query, stable_dumps
from repro.workloads import medical, star, xmark
from repro.workloads.xmark import XMarkParameters

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
RETIRED = re.compile(r"\b(?:Simple)?CostEstimator\b")


def calls_of(function_source, name):
    """Lines of calls to ``<anything>.name(...)`` in *function_source*."""
    return [
        node.lineno
        for node in ast.walk(ast.parse(function_source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == name
    ]


class TestOneCostModel:
    def test_source_scan(self):
        paths = sorted(SRC.rglob("*.py"))
        assert paths, f"nothing to scan under {SRC}"
        offenders = [
            f"{path.relative_to(SRC)}:{number}: {line.strip()}"
            for path in paths
            for number, line in enumerate(path.read_text().splitlines(), start=1)
            if RETIRED.search(line)
        ]
        assert not offenders, "\n".join(offenders)
        assert not (SRC / "engine" / "cost.py").exists()

    @pytest.mark.parametrize("cls", [MarsSystem, CBEngine, BackchaseEngine])
    def test_no_estimator_parameter(self, cls):
        assert "estimator" not in inspect.signature(cls).parameters

    def test_attach_does_not_recompile(self):
        source = textwrap.dedent(inspect.getsource(MarsSystem.attach_statistics))
        assert calls_of(source, "_compile_artifacts") == []

    def test_the_scan_catches_what_it_is_for(self):
        assert RETIRED.search("from .cost import CostEstimator, SimpleCostEstimator")
        assert RETIRED.search("estimator: Optional[CostEstimator] = None")
        assert not RETIRED.search("model = CostModel(catalog)")
        assert calls_of(
            "def attach_statistics(self, catalog):\n"
            "    self.cost_model.catalog = catalog\n"
            "    self._compile_artifacts()\n",
            "_compile_artifacts",
        ) == [3]


class TestAttachKeepsTheCompiledConfiguration:
    def test_attach_swaps_the_catalog_only(self):
        configuration = medical.build_configuration()
        system = MarsSystem(configuration)
        query = medical.client_query()
        system.reformulate(query)
        engine = system._engine
        # The shortcut chase (medical declares closure specs) wraps the one
        # ChaseEngine that caches compiled dependencies.
        compiled = engine.checker.engine._engine._compiled_cache
        assert compiled, "the first reformulation compiles dependencies"
        cached = dict(compiled)
        digest = system.configuration_digest
        model = system.cost_model

        catalog = StatisticsCatalog()
        system.attach_statistics(catalog)

        assert system._engine is engine
        assert engine.checker.engine._engine._compiled_cache is compiled
        assert dict(compiled) == cached
        assert system.configuration_digest == digest
        assert system.cost_model is model
        assert system.catalog is catalog
        assert engine.cost_model is model
        assert engine.backchase_engine.cost_model is model

    def test_override_engines_share_the_model(self):
        system = MarsSystem(medical.build_configuration())
        system.reformulate(medical.client_query(), minimize=False)
        (override,) = system._override_engines.values()
        assert override.cost_model is system.cost_model
        system.attach_statistics(StatisticsCatalog())
        assert system._override_engines == {False: override}


def plan_record(reformulation):
    """What a plan decision is, in canonical bytes."""
    return (
        stable_dumps(canonical_query(reformulation.best)),
        sorted(stable_dumps(canonical_query(m)) for m in reformulation.minimal),
        reformulation.candidate_costs,
        reformulation.subqueries_inspected,
    )


def shrunk(catalog):
    """A second catalog: every other table a tenth of its measured size."""
    smaller = StatisticsCatalog(
        tables=catalog.tables,
        access_weights=catalog.access_weights,
        default_row_count=catalog.default_row_count,
        default_weight=catalog.default_weight,
    )
    for name in sorted(catalog.tables)[1::2]:
        smaller.add(catalog.tables[name].scaled(0.1))
    return smaller


def _star(corners):
    parameters = star.StarParameters(corners=corners)
    return (
        star.build_configuration(parameters, with_instance=True),
        [star.client_query(parameters)],
    )


ATTACH_CASES = {
    "medical": lambda: (
        medical.build_configuration(),
        [medical.client_query(), medical.drug_usage_query()],
    ),
    "star:NC3": lambda: _star(3),
    "star:NC4": lambda: _star(4),
    "star:NC5": lambda: _star(5),
    # xmark scale 1, as the benchmark scales it.
    "xmark:suite": lambda: (
        xmark.build_configuration(
            XMarkParameters(items_per_region=8, people=15, closed_auctions=20)
        ),
        list(xmark.query_suite()),
    ),
}


class TestAttachTwiceEqualsAttachOnce:
    """Plans depend on the catalog attached last, not on what came before."""

    @pytest.mark.parametrize("case", sorted(ATTACH_CASES))
    def test_same_plans(self, case):
        configuration, queries = ATTACH_CASES[case]()
        executor = MarsExecutor(configuration, backend="memory")
        try:
            measured = executor.collect_statistics()
        finally:
            executor.close()
        final = shrunk(measured)

        twice = MarsSystem(configuration)
        twice.attach_statistics(measured)
        before = [twice.reformulate(query) for query in queries]
        twice.attach_statistics(final)
        once = MarsSystem(configuration)
        once.attach_statistics(final)
        for query, earlier in zip(queries, before):
            assert earlier.found, query.name
            assert plan_record(twice.reformulate(query)) == plan_record(
                once.reformulate(query)
            ), query.name
