"""Unit tests for the backchase, cost estimators and the full C&B pipeline."""

import pytest

from repro.engine import (
    BackchaseConfig,
    BackchaseEngine,
    CBConfig,
    CBEngine,
    ClosureSpec,
    ContainmentChecker,
    SimpleCostEstimator,
    SubqueryLegality,
    chase_query,
    prune_parallel_descendant_atoms,
)
from repro.logical import (
    ConjunctiveQuery,
    RelationalAtom,
    const,
    tgd,
    var,
    view_inclusion_dependencies,
)
from repro.cost import StatisticsCatalog

x, y, z, u = var("x"), var("y"), var("z"), var("u")


def catalog(cardinalities, access_weights=None):
    statistics = StatisticsCatalog(access_weights=access_weights)
    for relation, rows in cardinalities.items():
        statistics.set_cardinality(relation, rows)
    return statistics


def R(*terms):
    return RelationalAtom("R", terms)


def S(*terms):
    return RelationalAtom("S", terms)


class TestCostEstimators:
    def test_simple_estimator_monotone(self):
        estimator = SimpleCostEstimator(catalog({"R": 10, "S": 20}))
        small = ConjunctiveQuery("Q", [x], [R(x, y)])
        large = ConjunctiveQuery("Q", [x], [R(x, y), S(y, z)])
        assert estimator.estimate(small) < estimator.estimate(large)

    def test_simple_estimator_uses_weights(self):
        weighted = SimpleCostEstimator(catalog({"R": 10}, access_weights={"R": 5.0}))
        unweighted = SimpleCostEstimator(catalog({"R": 10}))
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        assert weighted.estimate(query) > unweighted.estimate(query)


class TestBackchase:
    def _setup(self):
        cV, bV = view_inclusion_dependencies("V", [x, z], [R(x, y), S(y, z)])
        ind = tgd("ind", [R(x, y)], [S(y, z)])
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        dependencies = [ind, cV, bV]
        plan = chase_query(query, dependencies).universal_plan
        return query, plan, dependencies

    def test_initial_reformulation(self):
        query, plan, dependencies = self._setup()
        engine = BackchaseEngine()
        initial = engine.initial_reformulation(query, plan, dependencies, {"V"})
        assert initial is not None
        assert initial.relation_names() == frozenset({"V"})

    def test_initial_reformulation_none_when_impossible(self):
        query, plan, dependencies = self._setup()
        engine = BackchaseEngine()
        assert engine.initial_reformulation(query, plan, dependencies, {"W"}) is None

    def test_minimal_reformulation_found(self):
        query, plan, dependencies = self._setup()
        engine = BackchaseEngine()
        result = engine.backchase(query, plan, dependencies, target_relations={"V"})
        assert result.best is not None
        assert result.best.relation_names() == frozenset({"V"})
        assert len(result.best.relational_body) == 1

    def test_backchase_without_target_restriction_minimizes(self):
        query, plan, dependencies = self._setup()
        engine = BackchaseEngine(
            estimator=SimpleCostEstimator(catalog({"V": 1, "R": 100, "S": 100}))
        )
        result = engine.backchase(query, plan, dependencies, target_relations=None)
        assert result.best is not None
        assert len(result.best.relational_body) == 1

    def test_all_minimal_reformulations_without_cost_pruning(self):
        query, plan, dependencies = self._setup()
        engine = BackchaseEngine(config=BackchaseConfig(prune_by_cost=False))
        result = engine.backchase(query, plan, dependencies, target_relations=None)
        bodies = {frozenset(m.relation_names()) for m in result.minimal_reformulations}
        # Both the original R-scan and the view rewrite are minimal.
        assert frozenset({"R"}) in bodies
        assert frozenset({"V"}) in bodies

    def test_stop_at_first(self):
        query, plan, dependencies = self._setup()
        engine = BackchaseEngine(config=BackchaseConfig(stop_at_first=True))
        result = engine.backchase(query, plan, dependencies, target_relations={"V"})
        assert len(result.minimal_reformulations) == 1


class TestPlanPruning:
    def test_parallel_desc_atoms_removed(self):
        spec = ClosureSpec()
        atoms = [
            RelationalAtom("root", (var("r"),)),
            RelationalAtom("child", (var("r"), var("a"))),
            RelationalAtom("child", (var("a"), var("b"))),
            RelationalAtom("desc", (var("r"), var("b"))),
            RelationalAtom("desc", (var("a"), var("a"))),
            RelationalAtom("desc", (var("r"), var("c"))),
        ]
        plan = ConjunctiveQuery("U", [var("r")], atoms)
        pruned, removed = prune_parallel_descendant_atoms(plan, [spec])
        names = [a for a in pruned.relational_body if a.relation == "desc"]
        # desc(r,b) is parallel to child chains, desc(a,a) is reflexive: both go;
        # desc(r,c) has no parallel chain and stays.
        assert removed == 2
        assert len(names) == 1
        assert names[0].terms[1] == var("c")

    def test_legality_requires_entry_point(self):
        spec = ClosureSpec()
        atoms = (
            RelationalAtom("root", (var("r"),)),
            RelationalAtom("child", (var("r"), var("a"))),
            RelationalAtom("child", (var("a"), var("b"))),
            RelationalAtom("V", (var("b"),)),
        )
        legality = SubqueryLegality(atoms, specs=[spec])
        root_atom, first, second, view = atoms
        assert legality.is_entry(root_atom)
        assert legality.is_entry(view)
        assert not legality.is_entry(second)
        # Criterion 2: cannot jump into the middle of the navigation.
        assert not legality.can_extend([root_atom], second)
        assert legality.can_extend([root_atom], first)
        assert legality.can_extend([root_atom, first], second)
        # A set with a gap is illegal as a whole.
        assert not legality.is_legal([root_atom, second])
        assert legality.is_legal([root_atom, first, second])

    def test_legality_disabled_allows_everything(self):
        atoms = (RelationalAtom("child", (x, y)),)
        legality = SubqueryLegality(atoms, specs=(), enabled=False)
        assert legality.is_entry(atoms[0])
        assert legality.is_legal(atoms)


class TestCBEngine:
    def test_paper_example_end_to_end(self):
        cV, bV = view_inclusion_dependencies("V", [x, z], [R(x, y), S(y, z)])
        ind = tgd("ind", [R(x, y)], [S(y, z)])
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        engine = CBEngine()
        result = engine.reformulate(query, [ind, cV, bV], target_relations={"V"})
        assert result.best is not None
        assert result.best.relation_names() == frozenset({"V"})
        assert result.initial_reformulation is not None
        assert result.time_to_best >= result.time_to_initial >= 0.0

    def test_minimize_disabled_returns_initial(self):
        cV, bV = view_inclusion_dependencies("V", [x, z], [R(x, y), S(y, z)])
        ind = tgd("ind", [R(x, y)], [S(y, z)])
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        engine = CBEngine(config=CBConfig(minimize=False))
        result = engine.reformulate(query, [ind, cV, bV], target_relations={"V"})
        assert result.best is not None
        assert result.subqueries_inspected == 0

    def test_no_reformulation_when_views_insufficient(self):
        # The view does not expose R's first column, so Q has no rewrite over V.
        cV, bV = view_inclusion_dependencies("V", [z], [R(x, y), S(y, z)])
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        engine = CBEngine()
        result = engine.reformulate(query, [cV, bV], target_relations={"V"})
        assert result.best is None
        assert result.minimal_reformulations == []
