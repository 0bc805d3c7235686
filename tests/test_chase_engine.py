"""Unit tests for homomorphism search, the chase and containment."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import (
    ChaseConfig,
    ChaseEngine,
    ContainmentChecker,
    JoinTreeHomomorphismFinder,
    NaiveHomomorphismFinder,
    SymbolicInstance,
    chase_query,
    descendant_closure,
    ClosureSpec,
)
from repro.compile.grex import GrexSchema
from repro.compile.tix import tix_dependencies
from repro.errors import ChaseError
from repro.logical import (
    ConjunctiveQuery,
    DED,
    Disjunct,
    EqualityAtom,
    InequalityAtom,
    RelationalAtom,
    const,
    egd,
    tgd,
    var,
    view_inclusion_dependencies,
)
from repro.logical.terms import Constant
from repro.plan import canonical_query, stable_dumps
from repro.storage import InMemoryDatabase, evaluate_query


def R(*terms):
    return RelationalAtom("R", terms)


def S(*terms):
    return RelationalAtom("S", terms)


def T(*terms):
    return RelationalAtom("T", terms)


x, y, z, u, v, w = (var(n) for n in "xyzuvw")

#: Cell values of the generated rows; ``None`` must bind like any value.
VALUES = (0, 1, 2, None)
_TERMS = st.one_of(
    st.sampled_from((x, y, z, u)), st.sampled_from(VALUES[:3]).map(const)
)
PATTERNS = st.lists(
    st.builds(
        lambda name, first, second: RelationalAtom(name, (first, second)),
        st.sampled_from("RS"), _TERMS, _TERMS,
    ),
    min_size=1,
    max_size=4,
)
ROWS = st.lists(
    st.tuples(st.sampled_from("RS"), st.sampled_from(VALUES), st.sampled_from(VALUES)),
    max_size=10,
)
SEEDS = st.none() | st.tuples(st.sampled_from((x, y, z, u)), st.sampled_from(VALUES))


class TestHomomorphismFinders:
    """Both finders must agree; the join-tree one is the paper's new engine."""

    finders = [NaiveHomomorphismFinder(), JoinTreeHomomorphismFinder()]

    @pytest.mark.parametrize("finder", finders, ids=["naive", "joinTree"])
    def test_example_3_1(self, finder):
        # Paper Example 3.1: the only homomorphism is x->b, y->c, z->d, u->e, v->f.
        a, b, c, d, e, f, g = (const(n) for n in "abcdefg")
        target = [R(a, b), R(b, c), R(c, d), S(d, e), S(e, f), S(f, g)]
        pattern = [R(x, y), R(y, z), S(z, u), S(u, v)]
        results = finder.find_all(pattern, target)
        assert len(results) == 1
        mapping = results[0]
        assert mapping[x] == b and mapping[v] == f

    @pytest.mark.parametrize("finder", finders, ids=["naive", "joinTree"])
    def test_no_homomorphism(self, finder):
        target = [R(const("a"), const("b"))]
        pattern = [R(x, y), S(y, z)]
        assert finder.find_all(pattern, target) == []

    @pytest.mark.parametrize("finder", finders, ids=["naive", "joinTree"])
    def test_constant_in_pattern_must_match(self, finder):
        target = [R(const("a"), const("b")), R(const("c"), const("d"))]
        pattern = [R(const("a"), x)]
        results = finder.find_all(pattern, target)
        assert len(results) == 1
        assert results[0][x] == const("b")

    @pytest.mark.parametrize("finder", finders, ids=["naive", "joinTree"])
    def test_seed_restricts_results(self, finder):
        target = [R(const("a"), const("b")), R(const("c"), const("d"))]
        pattern = [R(x, y)]
        results = finder.find_all(pattern, target, seed={x: const("c")})
        assert len(results) == 1
        assert results[0][y] == const("d")

    @pytest.mark.parametrize("finder", finders, ids=["naive", "joinTree"])
    def test_repeated_variable_in_pattern(self, finder):
        target = [R(const("a"), const("a")), R(const("a"), const("b"))]
        pattern = [R(x, x)]
        results = finder.find_all(pattern, target)
        assert len(results) == 1

    @pytest.mark.parametrize("finder", finders, ids=["naive", "joinTree"])
    def test_equality_filter_in_pattern(self, finder):
        target = [R(const("a"), const("a")), R(const("a"), const("b"))]
        pattern = [R(x, y), EqualityAtom(x, y)]
        results = finder.find_all(pattern, target)
        assert len(results) == 1

    @given(PATTERNS, ROWS, SEEDS)
    @example([R(x, x)], [("R", None, None), ("R", None, 1)], None)
    @example([R(x, y), S(y, x)], [("R", 0, None), ("S", None, 0)], (y, None))
    @settings(max_examples=150, deadline=None)
    def test_property_finders_agree(self, pattern, rows, seed):
        """One oracle for both users of the compiled kernel: the join-tree
        finder over ``Inst(Q)`` and the memory evaluator over tables, on
        generated patterns (1-4 atoms, constants, repeated variables, an
        optional seed) and rows that may hold ``None``."""
        target = [
            RelationalAtom(name, (Constant(a), Constant(b))) for name, a, b in rows
        ]
        seed_map = {seed[0]: Constant(seed[1])} if seed else None
        naive = NaiveHomomorphismFinder().find_all(pattern, target, seed_map)
        join_tree = JoinTreeHomomorphismFinder().find_all(pattern, target, seed_map)

        def canonical(results):
            # Compare as sets: duplicate target atoms may yield the same
            # homomorphism several times in the naive finder.
            return {
                tuple(sorted((k.name, str(val)) for k, val in m.items()))
                for m in results
            }

        assert canonical(naive) == canonical(join_tree)

        # The memory evaluator answers the same pattern, seeded by
        # substitution, over the rows as concrete tables.
        variables = ConjunctiveQuery("p", (), pattern).variables()
        substitution = dict(seed_map or {})
        query = ConjunctiveQuery(
            "p",
            [substitution.get(term, term) for term in variables],
            [atom.substitute(substitution) for atom in pattern],
        )
        database = InMemoryDatabase()
        for name in "RS":
            database.create_table(name, 2)
        for name, a, b in rows:
            database.insert(name, (a, b))
        projected = {
            tuple(mapping[term].value for term in variables) for mapping in naive
        }
        assert set(evaluate_query(query, database)) == projected


class TestSymbolicInstance:
    def test_add_and_contains(self):
        instance = SymbolicInstance([R(x, y)])
        assert instance.contains_atom(R(x, y))
        assert not instance.add_atom(R(x, y))
        assert instance.add_atom(R(y, z))
        assert instance.cardinality("R") == 2

    def test_index_is_maintained_on_insert(self):
        instance = SymbolicInstance([R(x, y)])
        index = instance.index("R", (0,))
        assert (x,) in index
        instance.add_atom(R(x, z))
        assert len(instance.index("R", (0,))[(x,)]) == 2


class TestChase:
    def test_paper_section_2_3_example(self):
        """Chasing Q with (ind) and (cV) yields the universal plan with V."""
        cV, bV = view_inclusion_dependencies("V", [x, z], [R(x, y), S(y, z)])
        ind = tgd("ind", [R(x, y)], [S(y, z)])
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        result = chase_query(query, [ind, cV, bV])
        plan = result.universal_plan
        relations = plan.relation_names()
        assert relations == frozenset({"R", "S", "V"})

    def test_chase_is_idempotent_on_satisfied_constraints(self):
        dependency = tgd("d", [R(x, y)], [S(x, y)])
        query = ConjunctiveQuery("Q", [x], [R(x, y), S(x, y)])
        result = chase_query(query, [dependency])
        assert result.statistics.steps_applied == 0
        assert len(result.universal_plan.body) == 2

    def test_egd_merges_variables(self):
        key = egd("key", [R(x, y), R(x, z)], y, z)
        query = ConjunctiveQuery("Q", [x], [R(x, y), R(x, z), S(y, w), S(z, u)])
        result = chase_query(query, [key])
        plan = result.universal_plan
        # y and z are merged, so the two R atoms collapse into one; the S atoms
        # now share their first argument.
        assert len([a for a in plan.relational_body if a.relation == "R"]) == 1
        s_atoms = [a for a in plan.relational_body if a.relation == "S"]
        assert len(s_atoms) == 2
        assert s_atoms[0].terms[0] == s_atoms[1].terms[0]

    def test_egd_prefers_head_variables(self):
        key = egd("key", [R(x, y), R(x, z)], y, z)
        query = ConjunctiveQuery("Q", [y], [R(x, y), R(x, z)])
        plan = chase_query(query, [key]).universal_plan
        assert var("y") in plan.body_variables()

    def test_egd_on_constants_drops_inconsistent_branch(self):
        key = egd("key", [R(x, y), R(x, z)], y, z)
        query = ConjunctiveQuery("Q", [x], [R(x, const(1)), R(x, const(2))])
        result = chase_query(query, [key])
        assert result.branches == []

    def test_disjunctive_dependency_branches(self):
        dependency = DED(
            "choice",
            [R(x, y)],
            [Disjunct([S(x, y)]), Disjunct([T(x, y)])],
        )
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        result = chase_query(query, [dependency])
        assert len(result.branches) == 2
        relations = {frozenset(b.relation_names()) for b in result.branches}
        assert relations == {frozenset({"R", "S"}), frozenset({"R", "T"})}

    def test_step_budget_enforced(self):
        # A constraint that generates an infinite chase: R(x,y) -> exists z R(y,z).
        runaway = tgd("runaway", [R(x, y)], [R(y, z)])
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        config = ChaseConfig(max_steps=20, raise_on_budget=True)
        with pytest.raises(ChaseError):
            ChaseEngine(config).chase(query, [runaway])

    def test_naive_and_join_tree_strategies_agree(self):
        cV, bV = view_inclusion_dependencies("V", [x, z], [R(x, y), S(y, z)])
        ind = tgd("ind", [R(x, y)], [S(y, z)])
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        fast = ChaseEngine(ChaseConfig(strategy="joinTree")).chase(query, [ind, cV, bV])
        slow = ChaseEngine(ChaseConfig(strategy="naive")).chase(query, [ind, cV, bV])
        assert fast.universal_plan.relation_names() == slow.universal_plan.relation_names()
        assert len(fast.universal_plan.body) == len(slow.universal_plan.body)

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ChaseError):
            ChaseEngine(ChaseConfig(strategy="bogus"))


@pytest.mark.parametrize("strategy", ["naive", "joinTree"])
class TestMixedAndDisjunctiveSteps:
    """Conclusions that add atoms *and* equate terms, and a disjunct that
    only equates them: no workload dependency has either shape, so they
    are pinned here, on both homomorphism strategies.  Plans are compared
    by canonical form, which no choice of variable names moves."""

    @staticmethod
    def chase(strategy, query, dependencies):
        return ChaseEngine(ChaseConfig(strategy=strategy)).chase(query, dependencies)

    def test_atom_and_equality_in_one_conclusion(self, strategy):
        mixed = DED("mixed", [R(x, y)], [Disjunct([S(x, z), EqualityAtom(z, y)])])
        plan = self.chase(
            strategy, ConjunctiveQuery("Q", [x], [R(x, y)]), [mixed]
        ).universal_plan
        expected = ConjunctiveQuery("Q", [x], [R(x, v), S(x, v)])
        assert canonical_query(plan) == canonical_query(expected)
        # A head variable is never renamed away; a constant wins over both.
        kept = self.chase(strategy, ConjunctiveQuery("Q", [x, y], [R(x, y)]), [mixed])
        assert set(kept.universal_plan.body) == {R(x, y), S(x, y)}
        pinned = self.chase(strategy, ConjunctiveQuery("Q", [x], [R(x, const(1))]), [mixed])
        assert set(pinned.universal_plan.body) == {R(x, const(1)), S(x, const(1))}
        assert self.chase(strategy, plan, [mixed]).statistics.steps_applied == 0

    def test_key_plus_atom(self, strategy):
        key = DED("key_plus", [R(x, y), R(x, w)], [Disjunct([S(x), EqualityAtom(y, w)])])
        query = ConjunctiveQuery("Q", [x], [R(x, y), R(x, z)])
        plan = self.chase(strategy, query, [key]).universal_plan
        expected = ConjunctiveQuery("Q", [x], [R(x, v), S(x)])
        assert canonical_query(plan) == canonical_query(expected)
        headed = ConjunctiveQuery("Q", [x, z], [R(x, y), R(x, z)])
        assert set(self.chase(strategy, headed, [key]).universal_plan.body) == {
            R(x, z),
            S(x),
        }
        clash = ConjunctiveQuery("Q", [x], [R(x, const(1)), R(x, const(2))])
        assert self.chase(strategy, clash, [key]).branches == []

    def test_tix_line_branches_on_an_equality_disjunct(self, strategy):
        schema = GrexSchema("doc")
        query = ConjunctiveQuery("Q", [x, y], [schema.desc(x, u), schema.desc(y, u)])
        dependencies = tix_dependencies(schema, include_disjunctive=True)
        branches = self.chase(strategy, query, dependencies).branches
        assert len(branches) == 3
        merged = [b for b in branches if b.head[0] == b.head[1]]
        assert [b.head for b in merged] == [(y, y)]
        apart = {b for b in branches if b.head == (x, y)}
        assert len(apart) == 2
        assert {schema.desc(x, y) in b.body for b in apart} == {True, False}
        assert {schema.desc(y, x) in b.body for b in apart} == {True, False}
        other = "naive" if strategy == "joinTree" else "joinTree"
        assert sorted(
            stable_dumps(canonical_query(b)) for b in branches
        ) == sorted(
            stable_dumps(canonical_query(b))
            for b in self.chase(other, query, dependencies).branches
        )


class TestDescendantClosure:
    def test_chain_closure_counts(self):
        spec = ClosureSpec()
        atoms = [RelationalAtom("root", (var("x0"),))]
        for i in range(4):
            atoms.append(RelationalAtom("child", (var(f"x{i}"), var(f"x{i+1}"))))
        query = ConjunctiveQuery("Q", [var("x0")], atoms)
        closed, added = descendant_closure(query, [spec])
        desc_atoms = [a for a in closed.relational_body if a.relation == "desc"]
        # 5 nodes: reflexive (5) + all ordered pairs on the chain (10) = 15.
        assert len(desc_atoms) == 15
        assert added > 0

    def test_closure_is_idempotent(self):
        spec = ClosureSpec()
        atoms = [RelationalAtom("child", (x, y)), RelationalAtom("child", (y, z))]
        query = ConjunctiveQuery("Q", [x], atoms)
        closed, _ = descendant_closure(query, [spec])
        again, added = descendant_closure(closed, [spec])
        assert added == 0
        assert len(again.body) == len(closed.body)


class TestContainment:
    def test_plain_containment(self):
        checker = ContainmentChecker()
        q1 = ConjunctiveQuery("Q1", [x], [R(x, y), S(y, z)])
        q2 = ConjunctiveQuery("Q2", [x], [R(x, y)])
        assert checker.is_contained_in(q1, q2)
        assert not checker.is_contained_in(q2, q1)

    def test_containment_under_dependency(self):
        checker = ContainmentChecker()
        ind = tgd("ind", [R(x, y)], [S(y, z)])
        q1 = ConjunctiveQuery("Q1", [x], [R(x, y)])
        q2 = ConjunctiveQuery("Q2", [x], [R(x, y), S(y, z)])
        assert not checker.is_contained_in(q1, q2)
        assert checker.is_contained_in(q1, q2, [ind])

    def test_equivalence_with_view(self):
        checker = ContainmentChecker()
        cV, bV = view_inclusion_dependencies("V", [x, z], [R(x, y), S(y, z)])
        original = ConjunctiveQuery("Q", [x, z], [R(x, y), S(y, z)])
        rewritten = ConjunctiveQuery("Q", [x, z], [RelationalAtom("V", (x, z))])
        assert checker.is_equivalent(original, rewritten, [cV, bV])

    def test_is_minimal(self):
        checker = ContainmentChecker()
        redundant = ConjunctiveQuery("Q", [x], [R(x, y), R(x, z)])
        minimal = ConjunctiveQuery("Q", [x], [R(x, y)])
        assert not checker.is_minimal(redundant)
        assert checker.is_minimal(minimal)

    def test_relevant_dependencies_filter(self):
        d1 = tgd("uses_r", [R(x, y)], [S(x, y)])
        d2 = tgd("uses_t", [T(x, y)], [S(x, y)])
        d3 = tgd("uses_s", [S(x, y)], [T(x, y)])
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        relevant = ContainmentChecker.relevant_dependencies(query, [d1, d2, d3])
        # uses_r fires from R; it derives S, enabling uses_s, which derives T,
        # enabling uses_t: all three end up relevant.
        assert {d.name for d in relevant} == {"uses_r", "uses_s", "uses_t"}

    def test_relevant_dependencies_excludes_unreachable(self):
        d1 = tgd("uses_r", [R(x, y)], [S(x, y)])
        unreachable = tgd("needs_w", [RelationalAtom("W", (x,))], [T(x, x)])
        query = ConjunctiveQuery("Q", [x], [R(x, y)])
        relevant = ContainmentChecker.relevant_dependencies(query, [d1, unreachable])
        assert {d.name for d in relevant} == {"uses_r"}
