"""The persistent plan store: durability, equality, invalidation, damage.

Runs on whatever backend ``MARS_BACKEND`` selects, so CI's engine matrix
(memory / sqlite / sharded / replicated) exercises every combination of
canonical round-trip and live execution:

* decoded canonical queries compute exactly the rows the originals do,
  on randomized conjunctive queries over the backend's actual data;
* a restarted service pointed at the same plan directory serves warm
  queries with **zero** C&B engine entries and identical rows;
* a view/constraint edit makes every old artifact unreachable (and
  pruned) — a stale plan is never served;
* torn bytes, wrong identities and undecodable bodies are quarantined
  and degrade to a recompile, never to an error or a wrong plan;
* a compile whose backchase stopped at ``max_inspected`` is served but
  never persisted as the normative plan.
"""

import json
import os

import pytest

from repro.core.system import MarsSystem
from repro.engine import BackchaseConfig, CBConfig
from repro.errors import StorageError
from repro.plan import (
    ARTIFACT_FORMAT,
    PlanStore,
    canonical_query,
    plan_identity,
    query_from_canonical,
    reformulation_from_canonical,
    stable_dumps,
    stable_loads,
)
from repro.obs import COMPILE_TRUNCATED
from repro.serve import PublishingService
from repro.workloads import medical, star


@pytest.fixture
def store(tmp_path):
    return PlanStore(tmp_path / "plans")


def _rows(backend, query):
    return sorted(backend.execute(query, distinct=True))


class TestCanonicalRoundTripExecution:
    def test_random_queries_execute_identically(self, query_generator):
        executor = MarsSystem(medical.build_configuration()).executor()
        try:
            backend = executor.backend
            generator = query_generator(backend, seed=2024, max_atoms=3)
            for index in range(25):
                query = generator.conjunctive(f"rt{index}")
                document = stable_loads(stable_dumps(canonical_query(query)))
                rebuilt = query_from_canonical(document)
                assert _rows(backend, rebuilt) == _rows(backend, query), (
                    f"round-trip changed the answer of {query}"
                )
        finally:
            executor.close()

    def test_negative_result_round_trips(self):
        document = {
            "format": ARTIFACT_FORMAT,
            "query": {"name": "Nope", "head": [["v", 0]],
                      "body": [["rel", "r", [["v", 0]]]]},
            "compiled": {"name": "Nope", "head": [["v", 0]],
                         "body": [["rel", "r", [["v", 0]]]]},
            "universal_plan": {"name": "Nope", "head": [["v", 0]],
                               "body": [["rel", "r", [["v", 0]]]]},
            "initial": None,
            "minimal": [],
            "best": None,
            "chase_steps": 7,
            "subqueries_inspected": 0,
        }
        rebuilt = reformulation_from_canonical(document)
        assert rebuilt.best is None
        assert not rebuilt.found
        assert rebuilt.chase_steps == 7


class TestWarmRestart:
    def test_restart_serves_with_zero_engine_entries(self, tmp_path):
        plan_dir = tmp_path / "plans"
        query = medical.client_query()
        with PublishingService(
            medical.build_configuration(), plan_dir=str(plan_dir)
        ) as cold:
            cold_rows = sorted(cold.publish(query))
            assert cold.system.engine_invocations == 1
            assert cold.stats().plan_store.writes == 1
        with PublishingService(
            medical.build_configuration(), plan_dir=str(plan_dir)
        ) as warm:
            warm_rows = sorted(warm.publish(medical.client_query()))
            again = sorted(warm.publish(medical.client_query()))
            stats = warm.stats()
            assert warm.system.engine_invocations == 0
            assert stats.reformulations_computed == 0
            assert stats.plans_loaded == 1
            assert stats.plan_store.hits == 1
            kinds = [event.kind for event in warm.events.tail(100, None)]
            assert "plan_store.loaded" in kinds
        assert warm_rows == cold_rows == again

    def test_loaded_plan_is_ranked_and_rendered(self, tmp_path):
        plan_dir = tmp_path / "plans"
        query = medical.client_query()
        with PublishingService(
            medical.build_configuration(), plan_dir=str(plan_dir)
        ) as cold:
            cold.publish(query)
            fresh = cold.reformulate(query)
        with PublishingService(
            medical.build_configuration(), plan_dir=str(plan_dir)
        ) as warm:
            loaded = warm.reformulate(medical.client_query())
            assert loaded.cost_estimate is not None
            assert loaded.sql == fresh.sql
            assert loaded.best_cost == pytest.approx(fresh.best_cost)
            assert [name for name, _ in loaded.candidate_costs] == [
                name for name, _ in fresh.candidate_costs
            ]

    def test_mars_plan_dir_environment_wires_a_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MARS_PLAN_DIR", str(tmp_path / "env-plans"))
        with PublishingService(medical.build_configuration()) as service:
            service.publish(medical.client_query())
            assert service.plan_store is not None
            assert len(service.plan_store) == 1
        assert (tmp_path / "env-plans").is_dir()


class TestInvalidation:
    def test_configuration_edit_never_serves_the_old_plan(self, tmp_path):
        configuration = medical.build_configuration()
        store = PlanStore(tmp_path / "plans")
        system = MarsSystem(configuration, plan_store=store)
        system.reformulate(medical.client_query())
        old_identities = store.identities()
        assert len(old_identities) == 1
        # A constraint edit bumps the version and changes the compiled
        # dependency set: every old identity stops being addressable.
        configuration.add_key("drugPrice", ["drug"])
        system.reformulate(medical.client_query())
        assert system.engine_invocations == 2
        new_identities = store.identities()
        assert new_identities != old_identities
        # The stale artifact was pruned during recompilation.
        assert len(new_identities) == 1
        assert store.stats().invalidations >= 1

    def test_minimize_mode_is_part_of_the_identity(self, tmp_path):
        store = PlanStore(tmp_path / "plans")
        system = MarsSystem(medical.build_configuration(), plan_store=store)
        system.reformulate(medical.client_query(), minimize=True)
        system.reformulate(medical.client_query(), minimize=False)
        assert system.engine_invocations == 2
        assert len(store) == 2

    def test_format_version_mismatch_is_stale_not_corrupt(self, store):
        identity = "ab" * 32
        artifact = {"format": ARTIFACT_FORMAT + 1, "identity": identity}
        path = store.directory / f"{identity}.json"
        path.write_text(stable_dumps(artifact), encoding="ascii")
        assert store.load(identity) is None
        assert not path.exists()
        stats = store.stats()
        assert stats.invalidations == 1
        assert stats.corrupt == 0


class TestDamage:
    def test_torn_bytes_are_quarantined(self, tmp_path):
        plan_dir = tmp_path / "plans"
        query = medical.client_query()
        with PublishingService(
            medical.build_configuration(), plan_dir=str(plan_dir)
        ) as cold:
            cold_rows = sorted(cold.publish(query))
            [identity] = cold.plan_store.identities()
        artifact_path = plan_dir / f"{identity}.json"
        artifact_path.write_text('{"truncated', encoding="ascii")
        with PublishingService(
            medical.build_configuration(), plan_dir=str(plan_dir)
        ) as warm:
            rows = sorted(warm.publish(medical.client_query()))
            stats = warm.stats()
            # Damage degrades to a recompile, never a wrong answer.
            assert rows == cold_rows
            assert warm.system.engine_invocations == 1
            assert stats.plan_store.corrupt == 1
            assert stats.plan_store.writes == 1
            kinds = [event.kind for event in warm.events.tail(100, None)]
            assert "plan_store.corrupt" in kinds
        assert artifact_path.with_suffix(".corrupt").exists()
        # The recompile overwrote the artifact; a third incarnation hits.
        with PublishingService(
            medical.build_configuration(), plan_dir=str(plan_dir)
        ) as third:
            assert sorted(third.publish(medical.client_query())) == cold_rows
            assert third.system.engine_invocations == 0

    def test_wrong_embedded_identity_is_quarantined(self, store):
        identity = "cd" * 32
        other = "ef" * 32
        assert store.save(identity, {"format": ARTIFACT_FORMAT})
        os.replace(
            store.directory / f"{identity}.json",
            store.directory / f"{other}.json",
        )
        assert store.load(other) is None
        assert store.stats().corrupt == 1

    def test_undecodable_body_is_quarantined_by_the_system(self, tmp_path):
        configuration = medical.build_configuration()
        store = PlanStore(tmp_path / "plans")
        system = MarsSystem(configuration, plan_store=store)
        query = medical.client_query()
        system.reformulate(query)
        [identity] = store.identities()
        artifact = stable_loads(
            (store.directory / f"{identity}.json").read_text(encoding="ascii")
        )
        artifact["minimal"] = [{"bogus": True}]
        artifact["best"] = {"bogus": True}
        store.save(identity, artifact)
        fresh_system = MarsSystem(configuration, plan_store=store)
        reformulation = fresh_system.reformulate(medical.client_query())
        assert fresh_system.engine_invocations == 1
        assert reformulation.found
        assert store.stats().corrupt == 1

    def test_malformed_identity_is_rejected(self, store):
        with pytest.raises(StorageError):
            store.load("../escape")
        with pytest.raises(StorageError):
            store.save("UPPER", {})


class TestStoreHygiene:
    def test_writes_leave_no_tmp_stragglers(self, tmp_path):
        plan_dir = tmp_path / "plans"
        with PublishingService(
            medical.build_configuration(), plan_dir=str(plan_dir)
        ) as service:
            service.publish(medical.client_query())
            service.publish(medical.drug_usage_query())
        leftovers = [p.name for p in plan_dir.iterdir()
                     if not p.name.endswith(".json")]
        assert leftovers == []
        assert len(list(plan_dir.glob("*.json"))) == 2

    def test_artifacts_are_stable_json(self, tmp_path):
        plan_dir = tmp_path / "plans"
        with PublishingService(
            medical.build_configuration(), plan_dir=str(plan_dir)
        ) as service:
            service.publish(medical.client_query())
        [path] = plan_dir.glob("*.json")
        text = path.read_text(encoding="ascii")
        artifact = json.loads(text)
        # Byte-stable: re-serializing through stable JSON is the identity.
        assert stable_dumps(artifact) == text
        assert artifact["identity"] == path.stem
        assert artifact["format"] == ARTIFACT_FORMAT
        assert artifact["configuration"]
        assert artifact["query_digest"]
        # Derived artifacts are absent by construction.
        for forbidden in ("sql", "cost", "best_cost", "time_to_best"):
            assert forbidden not in artifact

    def test_identity_addresses_are_shared_across_stores(self, tmp_path):
        # Two independent systems (same configuration content) write the
        # same identity — last writer wins with byte-identical content.
        store_a = PlanStore(tmp_path / "plans")
        store_b = PlanStore(tmp_path / "plans")
        system_a = MarsSystem(medical.build_configuration(), plan_store=store_a)
        system_b = MarsSystem(medical.build_configuration(), plan_store=store_b)
        system_a.reformulate(medical.client_query())
        [identity] = store_a.identities()
        text_before = (tmp_path / "plans" / f"{identity}.json").read_text()
        assert system_b.engine_invocations == 0
        system_b.reformulate(medical.client_query())
        assert system_b.engine_invocations == 0  # served from A's artifact
        assert store_b.stats().hits == 1
        assert (tmp_path / "plans" / f"{identity}.json").read_text() == text_before


class TestNotFoundArtifact:
    def test_a_loaded_not_found_plan_keeps_the_compiled_best_cost(self, tmp_path):
        """A compile that finds no reformulation reports ``best_cost`` inf;
        the same plan loaded from the store reported 0.0."""
        parameters = star.StarParameters(corners=3, include_base_storage=False)

        def system():
            configuration = star.build_configuration(parameters)
            configuration.xics = [
                xic for xic in configuration.xics if xic.name != "key_R_K"
            ]
            return MarsSystem(configuration, plan_store=PlanStore(tmp_path / "plans"))

        query = star.client_query(parameters)
        compiled = system().reformulate(query)
        reloaded = system()
        loaded = reloaded.reformulate(query)
        assert reloaded.engine_invocations == 0  # served from the artifact
        assert compiled.best is None and loaded.best is None
        assert loaded.best_cost == compiled.best_cost


class TestTruncatedCompile:
    def test_capped_compile_is_served_but_never_persisted(self, tmp_path):
        plan_dir = tmp_path / "plans"
        configuration = medical.build_configuration()
        system = MarsSystem(
            configuration,
            cb_config=CBConfig(backchase=BackchaseConfig(max_inspected=5)),
        )
        with PublishingService(
            configuration, system=system, plan_dir=str(plan_dir)
        ) as service:
            query = medical.client_query()
            rows = service.publish(query)
            (minimize,) = [
                span for span in service.last_trace.root.walk()
                if span.name == "backchase.minimize"
            ]
            assert minimize.attributes["truncated"] is True
            assert minimize.attributes["subqueries_inspected"] == 5
            # The in-memory cache keeps it: a recompile gives the same result.
            assert sorted(service.publish(query)) == sorted(rows)
            reformulation = service.reformulate(query)
            assert not reformulation.complete
            assert service.system.engine_invocations == 1
            assert service.stats().plan_store.writes == 0
            (event,) = service.events.events(COMPILE_TRUNCATED)
            assert event.details["query"] == "DiagPrice"
            assert event.details["subqueries_inspected"] == 5
        assert list(plan_dir.glob("*.json")) == []
