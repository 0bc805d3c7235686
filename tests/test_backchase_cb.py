"""Unit tests for the backchase, its cost bound and the full C&B pipeline."""

import itertools

import pytest

from repro.core.system import MarsSystem
from repro.engine import (
    BackchaseConfig,
    BackchaseEngine,
    CBConfig,
    CBEngine,
    ClosureSpec,
    ContainmentChecker,
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
from repro.cost import CostModel, StatisticsCatalog
from repro.logical.terms import Variable
from repro.workloads import medical, star, xmark
from repro.xbind.atoms import PathAtom
from repro.xbind.query import XBindQuery

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


class TestLowerBound:
    """The backchase prunes with ``CostModel.lower_bound``."""

    def test_monotone(self):
        model = CostModel(catalog({"R": 10, "S": 20}))
        small = ConjunctiveQuery("Q", [x], [R(x, y)])
        large = ConjunctiveQuery("Q", [x], [R(x, y), S(y, z)])
        assert model.lower_bound(small) < model.lower_bound(large)

    def test_uses_weights(self):
        weighted = CostModel(catalog({"R": 10}, access_weights={"R": 5.0}))
        unweighted = CostModel(catalog({"R": 10}))
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        assert weighted.lower_bound(query) > unweighted.lower_bound(query)


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
            cost_model=CostModel(catalog({"V": 1, "R": 100, "S": 100}))
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


# ----------------------------------------------------------------------
# Brute-force oracle for the backchase
# ----------------------------------------------------------------------
def _xmark_chain(path, tail=None):
    """A child-axis chain over the auction document (the RegionItems shape)."""
    element, value = Variable("e"), Variable("v")
    atoms = [PathAtom(path, element, document=xmark.AUCTION_DOCUMENT)]
    if tail is None:
        return XBindQuery("Chain", (element,), tuple(atoms))
    atoms.append(PathAtom(tail, value, source=element))
    return XBindQuery("Chain", (value,), tuple(atoms))


def _star(corners):
    parameters = star.StarParameters(corners=corners)
    return star.build_configuration(parameters), star.client_query(parameters)


# (configuration, query, does the search earn the mandatory-core test?)
ORACLE_CASES = {
    "xmark:/site": lambda: (
        xmark.build_configuration(with_instance=False), _xmark_chain("/site"), False),
    "xmark:/site/regions": lambda: (
        xmark.build_configuration(with_instance=False),
        _xmark_chain("/site/regions"), True),
    "xmark:/site/regions/europe": lambda: (
        xmark.build_configuration(with_instance=False),
        _xmark_chain("/site/regions/europe"), True),
    "xmark:/site/regions/europe/text()": lambda: (
        xmark.build_configuration(with_instance=False),
        _xmark_chain("/site/regions/europe", "./text()"), True),
    "medical:DrugUsage": lambda: (
        medical.build_configuration(), medical.drug_usage_query(), False),
    "star:NC3": lambda: _star(3) + (False,),
    "star:NC4": lambda: _star(4) + (False,),
}


class BackchaseOracle:
    """Everything the backchase must agree with, computed the slow way.

    Shares no search code with :class:`BackchaseEngine`: it chases to the
    universal plan through the engine's public phase-1 entry point, then
    asks a checker of its own about subsets of the target atoms.
    """

    def __init__(self, configuration, query, prune_by_cost, **backchase):
        self.system = MarsSystem(configuration)
        self.specs = configuration.closure_specs()
        self.original = self.system.compile_query(query)
        self.dependencies = self.system.dependencies
        self.engine = CBEngine(
            config=CBConfig(
                backchase=BackchaseConfig(prune_by_cost=prune_by_cost, **backchase)
            ),
            cost_model=self.system.cost_model,
            specs=self.specs,
        )
        self.result = self.engine.reformulate(
            self.original, self.dependencies, self.system.target_relations
        )
        self.plan = self.result.universal_plan
        self.targets = self.engine.backchase_engine.target_atoms(
            self.plan, self.system.target_relations
        )
        self.legality = SubqueryLegality(self.targets, specs=self.specs)
        self.checker = ContainmentChecker(CBConfig().chase, specs=self.specs)

    def is_reformulation(self, atoms, legal_only=True):
        if legal_only and not self.legality.is_legal(atoms):
            return False
        return self.checker.is_equivalent_subquery(
            self.plan.subquery(atoms), self.original, self.dependencies
        )

    def minimal_among(self, subsets):
        """The inclusion-minimal legal reformulations among *subsets*."""
        reformulations = [
            frozenset(subset) for subset in subsets if self.is_reformulation(subset)
        ]
        return {
            subset
            for subset in reformulations
            if not any(other < subset for other in reformulations)
        }

    def all_subsets(self, pinned=()):
        free = [atom for atom in self.targets if atom not in pinned]
        for size in range(len(free) + 1):
            for extra in itertools.combinations(free, size):
                if pinned or extra:
                    yield tuple(pinned) + extra

    def core(self):
        """Atoms whose removal from the full target set breaks equivalence."""
        return {
            atom
            for atom in self.targets
            if not self.is_reformulation(
                [other for other in self.targets if other != atom], legal_only=False
            )
        }

    def found(self):
        return {
            frozenset(m.relational_body) for m in self.result.minimal_reformulations
        }

    def cheapest(self, minimal):
        return min(
            self.system.cost_model.lower_bound(self.plan.subquery(m)) for m in minimal
        )


class TestBackchaseOracle:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_all_minimal_reformulations_match_brute_force(self, case):
        configuration, query, earns_core = ORACLE_CASES[case]()
        oracle = BackchaseOracle(configuration, query, prune_by_cost=False)
        assert len(oracle.targets) <= 12
        minimal = oracle.minimal_among(oracle.all_subsets())
        assert minimal, "the case must have a reformulation"
        assert oracle.found() == minimal
        assert oracle.result.complete
        core = oracle.result.mandatory_core
        if core is not None:
            assert set(core) == oracle.core()
            assert all(set(core) <= m for m in minimal)

        # The default search (cost pruning on) is the one whose trigger the
        # case table describes.
        pruned = BackchaseOracle(configuration, query, prune_by_cost=True)
        assert (pruned.result.mandatory_core is not None) == earns_core
        assert pruned.result.best_cost == oracle.cheapest(minimal)
        assert frozenset(pruned.result.best.relational_body) in minimal

    def test_capped_search_is_a_flagged_subset_of_brute_force(self):
        """Stopped at ``max_inspected`` with subsets pending, the search
        returns only true minimal reformulations, but not all of them, and
        says it is incomplete."""
        configuration, query = _star(3)
        capped = BackchaseOracle(configuration, query, prune_by_cost=False, max_inspected=25)
        minimal = capped.minimal_among(capped.all_subsets())
        found = capped.found()
        assert capped.result.subqueries_inspected == 25
        assert found and found < minimal
        assert not capped.result.complete

    def test_region_items_matches_brute_force_above_its_core(self):
        """RegionItems keeps atoms *beyond* its core, so the search must
        extend past the seed; 20 target atoms are too many for 2**20, but
        every reformulation contains the (independently computed) core."""
        oracle = BackchaseOracle(
            xmark.build_configuration(with_instance=False),
            xmark.query_region_items(),
            prune_by_cost=False,
        )
        core = oracle.core()
        assert set(oracle.result.mandatory_core) == core
        assert 0 < len(core) < len(oracle.result.best.relational_body)
        pinned = [atom for atom in oracle.targets if atom in core]
        assert oracle.found() == oracle.minimal_among(oracle.all_subsets(pinned))

    def test_interchangeable_atoms_around_a_small_core(self):
        """Five safe singletons fail, which earns the core test at the end
        of level 1 with a core no larger than the level: the search starts
        over from ``{A}`` and still finds all four minimal reformulations."""
        def unary(name):
            return RelationalAtom(name, (x,))

        dependencies = [
            tgd("b12", [unary("B1")], [unary("B2")]),
            tgd("b21", [unary("B2")], [unary("B1")]),
            tgd("c12", [unary("C1")], [unary("C2")]),
            tgd("c21", [unary("C2")], [unary("C1")]),
        ]
        query = ConjunctiveQuery("Q", [x], [unary("A"), unary("B1"), unary("C1")])
        plan = chase_query(query, dependencies).universal_plan
        engine = BackchaseEngine(config=BackchaseConfig(prune_by_cost=False))
        result = engine.backchase(query, plan, dependencies)
        assert result.mandatory_core == (unary("A"),)
        assert {
            frozenset(m.relation_names()) for m in result.minimal_reformulations
        } == {
            frozenset({"A", b, c}) for b in ("B1", "B2") for c in ("C1", "C2")
        }

    def test_core_seeded_search_still_answers_only_for_legal_subsets(self):
        """The core itself can be an *illegal* reformulation (here it jumps
        over ``child(r, a)``, which a dependency restores).  The bottom-up
        search never builds it; the core-seeded one does, and must pass it
        by in favour of the legal reformulation above it."""
        r, a = var("r"), var("a")
        root = RelationalAtom("root", (r,))
        step = RelationalAtom("child", (r, a))
        test = RelationalAtom("tag", (a, const("t")))
        view = RelationalAtom("V", (r,))
        restore = tgd("restore", [root, test], [step])
        query = ConjunctiveQuery("Q", [r], [root, step, test, view])
        targets = query.relational_body
        engine = BackchaseEngine(config=BackchaseConfig(prune_by_cost=False))
        result = engine.backchase(
            query,
            query,
            [restore],
            legality=SubqueryLegality(targets, specs=[ClosureSpec()]),
        )
        assert set(result.mandatory_core) == {root, test, view}
        assert [set(m.relational_body) for m in result.minimal_reformulations] == [
            set(targets)
        ]


# ----------------------------------------------------------------------
# The earned trigger: where the core path runs, and that it is a count
# ----------------------------------------------------------------------
# subqueries_inspected of the plain bottom-up search (the figures recorded
# before the mandatory core existed).  Equal figures mean the core path did
# not run; RegionItems is the one workload query that earns it.
PLAIN_SEARCH_INSPECTED = {
    "DiagPrice": 29,
    "DrugUsage": 3,
    "ItemNames": 2,
    "ItemsInCategory": 8,
    "PersonCities": 2,
    "ItemPrices": 9,
    "BuyersWithItems": 50,
    "OutOfTownBuyers": 9,
    "Star3": 37,
    "Star4": 86,
    "Star5": 372,
    "Star6": 784,
    "Star7": 3444,
}


def _workload_cases():
    for query in (medical.client_query(), medical.drug_usage_query()):
        yield medical.build_configuration(), query
    for query in xmark.query_suite():
        yield xmark.build_configuration(with_instance=False), query
    for corners in range(3, 8):
        yield _star(corners)


class TestCoreTrigger:
    def test_only_region_items_earns_the_core(self):
        earned = {}
        for configuration, query in _workload_cases():
            result = BackchaseOracle(configuration, query, prune_by_cost=True).result
            if result.mandatory_core is None:
                assert (
                    result.subqueries_inspected == PLAIN_SEARCH_INSPECTED[query.name]
                ), query.name
            else:
                earned[query.name] = result.subqueries_inspected
        assert list(earned) == ["RegionItems"]
        assert earned["RegionItems"] < 400  # 6 791 without the core

    def test_region_items_search_is_deterministic(self):
        def compile_fresh():
            system = MarsSystem(xmark.build_configuration(with_instance=False))
            reformulation = system.reformulate(xmark.query_region_items())
            return (
                reformulation.subqueries_inspected,
                [str(m) for m in reformulation.minimal],
                str(reformulation.best),
            )

        assert compile_fresh() == compile_fresh()


class TestTruncation:
    """A search stopped at ``max_inspected`` with subsets pending says so."""

    @staticmethod
    def diag_price(**backchase):
        system = MarsSystem(
            medical.build_configuration(),
            cb_config=CBConfig(backchase=BackchaseConfig(**backchase)),
        )
        return system.reformulate(medical.client_query())

    def test_uncapped_workload_compiles_are_complete(self):
        for configuration, query in _workload_cases():
            reformulation = MarsSystem(configuration).reformulate(query)
            assert reformulation.found, query.name
            assert reformulation.complete, query.name

    def test_capped_compile_is_incomplete(self):
        assert self.diag_price().subqueries_inspected == 29
        capped = self.diag_price(max_inspected=5)
        assert capped.subqueries_inspected == 5
        assert not capped.complete
        # The verified initial reformulation still serves.
        assert capped.found

    def test_cap_reached_on_the_last_subset_is_complete(self):
        assert self.diag_price(max_inspected=29).complete

    def test_stop_at_first_is_not_truncation(self):
        first = self.diag_price(stop_at_first=True)
        assert len(first.minimal) == 1
        assert first.complete
