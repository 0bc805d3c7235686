"""Integration tests: the full MARS pipeline on the paper's scenarios.

These tests exercise configuration -> compilation -> chase & backchase ->
reformulation -> execution, and verify that reformulations return the same
answers as the original queries over the published documents.
"""

import pytest

from repro.core import MarsConfiguration, MarsExecutor, MarsSystem
from repro.engine import BackchaseConfig, CBConfig
from repro.errors import ReformulationError
from repro.logical.atoms import EqualityAtom
from repro.logical.terms import Constant, Variable
from repro.workloads import medical, star, xmark
from repro.workloads.star import StarParameters
from repro.xbind import PathAtom, XBindQuery


@pytest.fixture(scope="module")
def medical_system():
    configuration = medical.build_configuration()
    return configuration, MarsSystem(configuration)


class TestMedicalScenario:
    """Paper Example 1.1: mixed and redundant storage with GAV + LAV views."""

    def test_reformulation_found(self, medical_system):
        _, system = medical_system
        result = system.reformulate(medical.client_query())
        assert result.found
        assert result.best is not None
        assert result.sql is not None and "SELECT" in result.sql

    def test_best_uses_relational_redundancy(self, medical_system):
        """The drugPrice copy plus the patient tables win (paper's discussion)."""
        _, system = medical_system
        result = system.reformulate(medical.client_query())
        relations = result.best.relation_names()
        assert "patientDiag" in relations
        assert "patientDrug" in relations
        assert "drugPrice" in relations
        # no access to the (more expensive) native XML catalog
        assert not any(name.startswith("root__catalog") for name in relations)

    def test_all_reformulations_without_cost_pruning(self):
        configuration = medical.build_configuration()
        cb_config = CBConfig(backchase=BackchaseConfig(prune_by_cost=False))
        system = MarsSystem(configuration, cb_config=cb_config)
        result = system.reformulate(medical.client_query())
        assert len(result.minimal) >= 2
        bodies = [m.relation_names() for m in result.minimal]
        assert any("drugPrice" in names for names in bodies)
        assert any(
            any(name.startswith("tag__catalog") for name in names) for names in bodies
        )

    def test_reformulation_answers_match_original(self, medical_system):
        configuration, system = medical_system
        result = system.reformulate(medical.client_query())
        executor = MarsExecutor(configuration)
        comparison = executor.compare(medical.client_query(), result.best)
        assert comparison.answers_match
        assert len(comparison.original_rows) > 0

    def test_second_query_reformulates_to_patient_tables(self, medical_system):
        configuration, system = medical_system
        result = system.reformulate(medical.drug_usage_query())
        assert result.found
        relations = result.best.relation_names()
        assert "patientDrug" in relations
        executor = MarsExecutor(configuration)
        comparison = executor.compare(medical.drug_usage_query(), result.best)
        assert comparison.answers_match

    def test_minimize_off_returns_initial(self, medical_system):
        _, system = medical_system
        result = system.reformulate(medical.client_query(), minimize=False)
        assert result.found
        assert result.initial is not None
        assert len(result.initial.relational_body) >= len(result.best.relational_body)

    def test_reformulate_or_fail_raises_when_impossible(self):
        configuration = MarsConfiguration("empty")
        configuration.add_public_document("only_public.xml")
        system = MarsSystem(configuration)
        from repro.logical import Variable
        from repro.xbind import PathAtom, XBindQuery

        query = XBindQuery(
            "Q",
            (Variable("t"),),
            (PathAtom("//a/text()", Variable("t"), document="only_public.xml"),),
        )
        with pytest.raises(ReformulationError):
            system.reformulate_or_fail(query)


class TestStarScenario:
    """The synthetic star configuration behind Figures 5 and 8."""

    def test_views_only_reformulation(self):
        parameters = StarParameters(corners=3, include_base_storage=False)
        system = MarsSystem(star.build_configuration(parameters))
        result = system.reformulate(star.client_query(parameters))
        assert result.found
        assert result.best.relation_names() == frozenset({"V1", "V2"})

    def test_redundant_storage_gives_multiple_reformulations(self):
        parameters = StarParameters(corners=3)
        cb_config = CBConfig(backchase=BackchaseConfig(prune_by_cost=False))
        system = MarsSystem(star.build_configuration(parameters), cb_config=cb_config)
        result = system.reformulate(star.client_query(parameters))
        assert result.found
        assert len(result.minimal) >= 2
        view_subsets = {
            frozenset(n for n in m.relation_names() if n.startswith("V"))
            for m in result.minimal
        }
        # at least the all-views and a view-free (shredded base) reformulation
        assert frozenset({"V1", "V2"}) in view_subsets
        assert frozenset() in view_subsets

    def test_best_uses_views(self):
        parameters = StarParameters(corners=4)
        system = MarsSystem(star.build_configuration(parameters))
        result = system.reformulate(star.client_query(parameters))
        assert result.found
        assert any(name.startswith("V") for name in result.best.relation_names())

    def test_reformulation_matches_execution(self):
        parameters = StarParameters(corners=3, hub_count=8, corner_size=6)
        configuration = star.build_configuration(parameters, with_instance=True)
        system = MarsSystem(configuration)
        query = star.client_query(parameters)
        result = system.reformulate(query)
        executor = MarsExecutor(configuration)
        comparison = executor.compare(query, result.best)
        assert comparison.answers_match
        assert len(comparison.original_rows) > 0

    def test_without_key_constraint_views_cannot_be_combined(self):
        """Dropping the key XIC removes the 2^NV reformulations (paper 4.1)."""
        parameters = StarParameters(corners=3, include_base_storage=False)
        configuration = star.build_configuration(parameters)
        configuration.xics = [x for x in configuration.xics if x.name != "key_R_K"]
        system = MarsSystem(configuration)
        result = system.reformulate(star.client_query(parameters))
        assert not result.found


class TestXMarkScenario:
    @pytest.fixture(scope="class")
    def system(self):
        configuration = xmark.build_configuration(with_instance=False)
        return MarsSystem(configuration)

    def test_all_queries_reformulate(self, system):
        for query in xmark.query_suite():
            result = system.reformulate(query)
            assert result.found, f"no reformulation for {query.name}"

    def test_item_queries_use_views(self, system):
        result = system.reformulate(xmark.query_item_names())
        assert result.best.relation_names() == frozenset({"itemName"})
        result = system.reformulate(xmark.query_item_prices())
        assert result.best.relation_names() == frozenset({"itemName", "auctionPrice"})

    def test_region_query_requires_base_document(self, system):
        result = system.reformulate(xmark.query_region_items())
        assert any(name.startswith("child__") or name.startswith("desc__")
                   for name in result.best.relation_names())

    def test_answers_match_on_instance(self):
        configuration = xmark.build_configuration(
            xmark.XMarkParameters(items_per_region=4, people=6, closed_auctions=8),
            with_instance=True,
        )
        system = MarsSystem(configuration)
        executor = MarsExecutor(configuration)
        for query in (
            xmark.query_item_names(),
            xmark.query_person_cities(),
            xmark.query_item_prices(),
        ):
            result = system.reformulate(query)
            comparison = executor.compare(query, result.best)
            assert comparison.answers_match, query.name


class TestEqualityAtoms:
    """An XBind equality is a join or a selection written out: the chase
    must see it collapsed, or no reformulation can match it."""

    PID, BUYER = Variable("pid"), Variable("b")

    @pytest.fixture(scope="class")
    def deployment(self):
        configuration = xmark.build_configuration(
            xmark.XMarkParameters(items_per_region=4, people=6, closed_auctions=8),
            with_instance=True,
        )
        return MarsSystem(configuration), MarsExecutor(configuration)

    def buyer_ids(self, *equalities):
        """``T(pid) :- //person p, p/@id pid, //closed_auction a,
        a/buyer/text() b`` plus *equalities*."""
        person, auction = Variable("p"), Variable("a")
        return XBindQuery(
            "BuyerIds",
            (self.PID,),
            (
                PathAtom("//person", person, document=xmark.AUCTION_DOCUMENT),
                PathAtom("./@id", self.PID, source=person),
                PathAtom("//closed_auction", auction, document=xmark.AUCTION_DOCUMENT),
                PathAtom("./buyer/text()", self.BUYER, source=auction),
            )
            + equalities,
        )

    def test_variable_equality_reformulates(self, deployment):
        system, executor = deployment
        query = self.buyer_ids(EqualityAtom(self.PID, self.BUYER))
        result = system.reformulate(query)
        assert result.found
        expected = sorted(executor.execute_original(query))
        assert expected
        for candidate in result.minimal:
            assert sorted(executor.execute_reformulation(candidate)) == expected

    def test_constant_equality_reformulates(self, deployment):
        system, executor = deployment
        joined = self.buyer_ids(EqualityAtom(self.PID, self.BUYER))
        buyer = min(executor.execute_original(joined))[0]
        query = self.buyer_ids(
            EqualityAtom(self.PID, self.BUYER),
            EqualityAtom(self.BUYER, Constant(buyer)),
        )
        result = system.reformulate(query)
        assert result.found
        expected = executor.execute_original(query)
        assert expected == [(buyer,)]
        assert executor.execute_reformulation(result.best) == expected

    def test_two_distinct_constants_find_no_reformulation(self, deployment):
        system, _ = deployment
        query = self.buyer_ids(
            EqualityAtom(self.PID, Constant("person0")),
            EqualityAtom(self.PID, Constant("person1")),
        )
        result = system.reformulate(query)
        assert not result.found and result.best is None


class TestExecutor:
    def test_statistics_reflect_instance_data(self):
        configuration = medical.build_configuration()
        executor = MarsExecutor(configuration)
        stats = executor.collect_statistics()
        assert stats.row_count("patientDiag") == len(medical.DEFAULT_PATIENTS)
        assert stats.row_count("drugPrice") == len(medical.DEFAULT_CATALOG)

    def test_published_documents_materialized_from_views(self):
        configuration = medical.build_configuration()
        executor = MarsExecutor(configuration)
        assert "case.xml" in executor.public_storage.documents
        case = executor.public_storage.documents["case.xml"]
        assert len(case.find_all("case")) > 0
