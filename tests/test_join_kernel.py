"""The compiled hash-join kernel (``engine/join_tree.py``) against the
naive backtracking finder, its per-row cost, and the scope of the compiled
patterns the containment checks keep.

Conjunctions are drawn from a seeded :class:`random.Random`, so a failing
case is reproduced from its test id alone.
"""

import random
from collections import Counter

import pytest

from repro.core.system import MarsSystem
from repro.engine import (
    CompiledConjunction,
    ContainmentChecker,
    JoinTreeHomomorphismFinder,
    NaiveHomomorphismFinder,
    SymbolicInstance,
)
from repro.logical import ConjunctiveQuery, EqualityAtom, InequalityAtom, RelationalAtom
from repro.logical.terms import Constant, Variable
from repro.storage import InMemoryDatabase, evaluate_query
from repro.workloads import xmark

#: Cell values; ``None`` must bind and compare like any other value.
VALUES = (0, 1, 2, None)
ARITY = {"R": 2, "S": 3, "T": 1}
VARIABLES = tuple(Variable(name) for name in "xyzu")
#: A variable no generated relational atom mentions.
LONER = Variable("w")


def random_atom(rng):
    relation = rng.choice(sorted(ARITY))
    terms = []
    for _ in range(ARITY[relation]):
        if rng.random() < 0.25:
            terms.append(Constant(rng.choice(VALUES)))  # a constant probe key
        elif terms and rng.random() < 0.2:
            # A variable repeated within one atom.
            earlier = [t for t in terms if isinstance(t, Variable)]
            terms.append(rng.choice(earlier or VARIABLES))
        else:
            terms.append(rng.choice(VARIABLES))
    return RelationalAtom(relation, tuple(terms))


def random_case(seed):
    """A conjunction (1-4 atoms, an optional filter), a target and a seed."""
    rng = random.Random(seed)
    atoms = [random_atom(rng) for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.3:
        atoms.append(RelationalAtom("R", (VARIABLES[0], VARIABLES[0])))
    bound = sorted({t for a in atoms for t in a.terms if isinstance(t, Variable)})
    if bound and rng.random() < 0.4:
        kind = rng.choice((EqualityAtom, InequalityAtom))
        atoms.append(kind(rng.choice(bound), rng.choice(bound)))
    target = [
        RelationalAtom(
            relation,
            tuple(Constant(rng.choice(VALUES)) for _ in range(ARITY[relation])),
        )
        for relation in rng.choices(sorted(ARITY), k=rng.randint(0, 40))
    ]
    seed_map = {}
    if bound and rng.random() < 0.4:
        seed_map[rng.choice(bound)] = Constant(rng.choice(VALUES))
    if rng.random() < 0.3:
        seed_map[LONER] = Constant(rng.choice(VALUES))
    return atoms, target, seed_map or None


def canonical(results):
    return Counter(
        tuple(sorted((variable.name, repr(value)) for variable, value in m.items()))
        for m in results
    )


class TestKernelAgainstNaiveFinder:
    @pytest.mark.parametrize("seed", range(200))
    def test_random_conjunctions_agree(self, seed):
        pattern, target, seed_map = random_case(seed)
        naive = NaiveHomomorphismFinder().find_all(pattern, target, seed_map)
        found = JoinTreeHomomorphismFinder().find_all(pattern, target, seed_map)
        # Inst(Q) holds each distinct target atom once; the naive finder
        # walks duplicates, so compare the sets of mappings.
        assert set(canonical(found)) == set(canonical(naive))
        if seed_map and LONER in seed_map:
            assert all(m[LONER] == seed_map[LONER] for m in found)

        instance = SymbolicInstance.from_atoms(target)
        for limit in (1, 2):
            limited = JoinTreeHomomorphismFinder().find_all_in_instance(
                pattern, instance, seed_map, limit=limit
            )
            assert len(limited) == min(limit, len(set(canonical(naive))))
            assert set(canonical(limited)) <= set(canonical(naive))

    @pytest.mark.parametrize("seed", range(200))
    def test_memory_evaluation_matches_the_naive_bag(self, seed):
        """Over tables, with every relational variable in the head: the bag
        of rows is the naive finder's bag of mappings of the conjunction
        the evaluator runs (equalities collapsed, repeated atoms merged)."""
        pattern, target, _seed = random_case(seed)
        variables = sorted(
            {
                term
                for atom in pattern
                if isinstance(atom, RelationalAtom)
                for term in atom.terms
                if isinstance(term, Variable)
            }
        )
        database = InMemoryDatabase()
        for relation, arity in ARITY.items():
            database.create_table(relation, arity)
        for atom in target:
            database.insert(atom.relation, tuple(t.value for t in atom.terms))
        query = ConjunctiveQuery("p", tuple(variables), tuple(pattern))
        normalized = query.normalize_equalities()
        naive = NaiveHomomorphismFinder().find_all(normalized.body, target)
        expected = Counter(
            tuple((m[t] if isinstance(t, Variable) else t).value for t in normalized.head)
            for m in naive
        )
        assert Counter(evaluate_query(query, database, distinct=False)) == expected
        assert sorted(evaluate_query(query, database), key=repr) == sorted(
            expected, key=repr
        )

    def test_empty_step_before_a_filter_on_a_later_variable(self):
        """The first step finds nothing; the filter reads a variable only
        the step after it binds.  Nothing is evaluated past the empty step,
        and nothing raises."""
        x, y, z = VARIABLES[:3]
        atoms = (
            RelationalAtom("T", (Constant(2),)),
            RelationalAtom("R", (x, y)),
            InequalityAtom(y, z),
            RelationalAtom("S", (x, y, z)),
        )
        plan = CompiledConjunction(atoms)
        assert plan.steps[0].atom.relation == "T"
        target = [
            RelationalAtom("T", (Constant(1),)),
            RelationalAtom("R", (Constant(1), Constant(2))),
        ]
        assert plan.evaluate(SymbolicInstance.from_atoms(target)) == []
        database = InMemoryDatabase()
        for relation, arity in ARITY.items():
            database.create_table(relation, arity)
        database.insert("T", (1,))
        database.insert("R", (1, 2))
        query = ConjunctiveQuery("q", (x, z), atoms)
        assert evaluate_query(query, database) == []

    def test_seed_of_a_variable_no_atom_mentions_is_kept(self):
        x, y = VARIABLES[:2]
        target = [RelationalAtom("R", (Constant(1), Constant(2)))]
        found = JoinTreeHomomorphismFinder().find_all(
            [RelationalAtom("R", (x, y))], target, {LONER: Constant(None)}
        )
        assert found == [{LONER: Constant(None), x: Constant(1), y: Constant(2)}]


class TestKernelCostPerRow:
    @staticmethod
    def hashes_during_evaluation(monkeypatch, rows):
        x, y, z = VARIABLES[:3]
        database = InMemoryDatabase()
        database.create_table("R", 2)
        database.create_table("S", 2)
        database.insert_many("R", [(i, i % 7) for i in range(rows)])
        database.insert_many("S", [(i % 7, i) for i in range(rows)])
        query = ConjunctiveQuery(
            "q", (x, z), (RelationalAtom("R", (x, y)), RelationalAtom("S", (y, z)))
        )
        calls = []
        original = Variable.__hash__

        def counting(variable):
            calls.append(variable)
            return original(variable)

        with monkeypatch.context() as patch:
            patch.setattr(Variable, "__hash__", counting)
            result = evaluate_query(query, database)
        assert len(result) > rows
        return len(calls)

    def test_variable_hashing_does_not_grow_with_the_rows(self, monkeypatch):
        assert self.hashes_during_evaluation(
            monkeypatch, 100
        ) == self.hashes_during_evaluation(monkeypatch, 1000)


class TestCompiledPatternScope:
    """The containment checks compile patterns per query; a long-lived
    engine keeps none of them past one reformulation."""

    QUERIES = [xmark.query_items_in_category(c) for c in ("art", "books", "coins", "toys")]

    @staticmethod
    def plans(result):
        return [str(q) for q in result.minimal], str(result.best)

    def test_cache_is_empty_after_each_compile_and_plans_do_not_change(
        self, monkeypatch
    ):
        system = MarsSystem(xmark.build_configuration())
        cleared = []
        for query in self.QUERIES:
            cleared.append(self.plans(system.reformulate(query)))
            assert system._engine.checker._join_finder._cache == {}
        monkeypatch.setattr(ContainmentChecker, "clear_compiled_patterns", lambda self: None)
        kept = MarsSystem(xmark.build_configuration())
        assert [self.plans(kept.reformulate(query)) for query in self.QUERIES] == cleared
        assert len(kept._engine.checker._join_finder._cache) >= len(self.QUERIES)
