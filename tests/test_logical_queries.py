"""Unit tests for conjunctive queries and schemas."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SchemaError
from repro.logical import (
    ConjunctiveQuery,
    EqualityAtom,
    InequalityAtom,
    RelationalAtom,
    RelationalSchema,
    const,
    make_query,
    var,
)


def q(name, head, body):
    return ConjunctiveQuery(name, head, body)


class TestConjunctiveQuery:
    def test_head_and_body_variables(self):
        query = q(
            "Q",
            [var("x")],
            [RelationalAtom("R", (var("x"), var("y"))), EqualityAtom(var("y"), const(1))],
        )
        assert query.head_variables() == (var("x"),)
        assert set(query.body_variables()) == {var("x"), var("y")}
        assert query.existential_variables() == (var("y"),)

    def test_safety(self):
        safe = q("Q", [var("x")], [RelationalAtom("R", (var("x"),))])
        unsafe = q("Q", [var("x")], [RelationalAtom("R", (var("y"),))])
        assert safe.is_safe()
        assert not unsafe.is_safe()

    def test_make_query_rejects_unsafe(self):
        with pytest.raises(SchemaError):
            make_query("Q", [var("x")], [RelationalAtom("R", (var("y"),))])

    def test_substitute_drops_trivial_equalities(self):
        query = q(
            "Q",
            [var("x")],
            [RelationalAtom("R", (var("x"), var("y"))), EqualityAtom(var("x"), var("y"))],
        )
        collapsed = query.substitute({var("y"): var("x")})
        assert all(not isinstance(a, EqualityAtom) for a in collapsed.body)

    def test_add_atoms_deduplicates(self):
        atom = RelationalAtom("R", (var("x"),))
        query = q("Q", [var("x")], [atom])
        extended = query.add_atoms([atom, RelationalAtom("S", (var("x"),))])
        assert len(extended.body) == 2

    def test_subquery_keeps_covered_filters(self):
        r_atom = RelationalAtom("R", (var("x"), var("y")))
        s_atom = RelationalAtom("S", (var("y"), var("z")))
        query = q(
            "Q",
            [var("x")],
            [r_atom, s_atom, InequalityAtom(var("x"), var("y")), InequalityAtom(var("z"), const(1))],
        )
        sub = query.subquery([r_atom])
        assert r_atom in sub.body
        assert s_atom not in sub.body
        assert InequalityAtom(var("x"), var("y")) in sub.body
        assert InequalityAtom(var("z"), const(1)) not in sub.body

    def test_normalize_equalities_merges_variables(self):
        query = q(
            "Q",
            [var("x")],
            [
                RelationalAtom("R", (var("x"), var("y"))),
                RelationalAtom("S", (var("z"),)),
                EqualityAtom(var("y"), var("z")),
            ],
        )
        normalized = query.normalize_equalities()
        assert not normalized.equalities
        variables = set(normalized.body_variables())
        assert len(variables) == 2  # y and z collapsed

    def test_normalize_equalities_prefers_constants(self):
        query = q(
            "Q",
            [var("x")],
            [RelationalAtom("R", (var("x"), var("y"))), EqualityAtom(var("y"), const(7))],
        )
        normalized = query.normalize_equalities()
        atom = normalized.relational_body[0]
        assert atom.terms[1] == const(7)

    def test_normalize_conflicting_constants_raises(self):
        query = q("Q", [var("x")], [RelationalAtom("R", (var("x"),)), EqualityAtom(const(1), const(2))])
        with pytest.raises(SchemaError):
            query.normalize_equalities()

    def test_rename_apart_preserves_structure(self):
        query = q(
            "Q",
            [var("x")],
            [RelationalAtom("R", (var("x"), var("y"))), RelationalAtom("S", (var("y"),))],
        )
        renamed, mapping = query.rename_apart()
        assert len(renamed.body) == len(query.body)
        assert set(mapping) == {var("x"), var("y")}
        assert not set(renamed.variables()) & set(query.variables())

    def test_relation_names(self):
        query = q("Q", [var("x")], [RelationalAtom("R", (var("x"),)), RelationalAtom("S", (var("x"),))])
        assert query.relation_names() == frozenset({"R", "S"})

    def test_dedupe(self):
        atom = RelationalAtom("R", (var("x"),))
        query = q("Q", [var("x")], [atom, atom])
        assert len(query.dedupe().body) == 1


class TestRelationalSchema:
    def test_declare_and_lookup(self):
        schema = RelationalSchema("s")
        schema.add_relation("R", ["a", "b"])
        assert "R" in schema
        assert schema.relation("R").arity == 2
        assert schema.relation("R").position("b") == 1

    def test_duplicate_relation_rejected(self):
        schema = RelationalSchema()
        schema.add_relation("R", ["a"])
        with pytest.raises(SchemaError):
            schema.add_relation("R", ["a"])

    def test_duplicate_attributes_rejected(self):
        schema = RelationalSchema()
        with pytest.raises(SchemaError):
            schema.add_relation("R", ["a", "a"])

    def test_key_dependency_generation(self):
        schema = RelationalSchema()
        schema.add_relation("R", ["k", "v"])
        schema.add_key("R", ["k"])
        dependencies = schema.key_dependencies()
        assert len(dependencies) == 1
        (conclusion,) = dependencies[0].disjuncts
        assert conclusion.atoms
        assert conclusion.equalities() == conclusion.atoms

    def test_foreign_key_dependency_generation(self):
        schema = RelationalSchema()
        schema.add_relation("R", ["k", "f"])
        schema.add_relation("S", ["k", "v"])
        schema.add_foreign_key("R", ["f"], "S", ["k"])
        dependencies = schema.foreign_key_dependencies()
        assert len(dependencies) == 1
        (conclusion,) = dependencies[0].disjuncts
        assert conclusion.relational_atoms()

    def test_unknown_relation_raises(self):
        schema = RelationalSchema()
        with pytest.raises(SchemaError):
            schema.relation("missing")


@given(st.integers(min_value=1, max_value=6))
def test_property_subquery_of_full_body_is_identity_on_relational_atoms(n):
    atoms = [RelationalAtom(f"R{i}", (var(f"x{i}"), var(f"x{i+1}"))) for i in range(n)]
    query = ConjunctiveQuery("Q", [var("x0")], atoms)
    sub = query.subquery(atoms)
    assert sub.relational_body == tuple(atoms)
