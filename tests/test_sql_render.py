"""SQL rendering: display text, parameterized form, and edge cases.

The edge cases matter because the backchase can minimize a query down to
something degenerate (constant-only head, empty relational body); the SQL
shipped to a real engine must stay well-formed in every case.
"""

import sqlite3

import pytest

from repro.logical.atoms import EqualityAtom, InequalityAtom, RelationalAtom
from repro.logical.queries import ConjunctiveQuery
from repro.logical.schema import RelationalSchema
from repro.logical.terms import Constant, Variable
from repro.storage.sql import SQLQuery, render_sql, render_sql_query


def sqlite_run(statement: SQLQuery):
    connection = sqlite3.connect(":memory:")
    try:
        return connection.execute(statement.sql, statement.params).fetchall()
    finally:
        connection.close()


def schema_with_r():
    schema = RelationalSchema("s")
    schema.add_relation("r", ("a", "b"))
    return schema


class TestRenderSQL:
    def test_plain_join_query(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        query = ConjunctiveQuery(
            "q",
            (x, z),
            (RelationalAtom("r", (x, y)), RelationalAtom("s", (y, z))),
        )
        sql = render_sql(query)
        assert "SELECT DISTINCT t0.c0 AS h0, t1.c1 AS h1" in sql
        assert "FROM r t0, s t1" in sql
        assert "t0.c1 IS t1.c0" in sql

    def test_schema_attribute_names(self):
        x, y = Variable("x"), Variable("y")
        query = ConjunctiveQuery("q", (y,), (RelationalAtom("r", (x, y)),))
        sql = render_sql(query, schema_with_r())
        assert "t0.b AS h0" in sql

    def test_constant_only_head_with_body(self):
        x = Variable("x")
        query = ConjunctiveQuery(
            "q", (Constant("yes"),), (RelationalAtom("r", (x, x)),)
        )
        sql = render_sql(query)
        assert sql.startswith("SELECT DISTINCT 'yes' AS h0")
        assert "FROM r t0" in sql

    def test_zero_relational_atoms_renders_without_from(self):
        query = ConjunctiveQuery("q", (Constant(1), Constant("two")), ())
        sql = render_sql(query)
        assert sql == "SELECT DISTINCT 1 AS h0, 'two' AS h1"
        assert "FROM" not in sql

    def test_zero_atoms_with_constant_filter(self):
        query = ConjunctiveQuery(
            "q",
            (Constant(1),),
            (InequalityAtom(Constant(1), Constant(2)),),
        )
        sql = render_sql(query)
        assert "FROM" not in sql
        assert "WHERE 1 IS NOT 2" in sql

    def test_empty_head_still_selects(self):
        x = Variable("x")
        query = ConjunctiveQuery("q", (), (RelationalAtom("r", (x, x)),))
        sql = render_sql(query)
        assert sql.startswith("SELECT DISTINCT 1")

    def test_string_literal_escaping(self):
        x = Variable("x")
        query = ConjunctiveQuery(
            "q", (x,), (RelationalAtom("r", (x, Constant("o'hara"))),)
        )
        assert "'o''hara'" in render_sql(query)


class TestRenderSQLQuery:
    def test_parameters_replace_constants(self):
        x = Variable("x")
        query = ConjunctiveQuery(
            "q",
            (x, Constant("head")),
            (RelationalAtom("r", (x, Constant(7))),),
        )
        statement = render_sql_query(query)
        assert statement.sql.count("?") == 2
        # SELECT-list parameters precede WHERE parameters
        assert statement.params == ("head", 7)

    def test_identifiers_are_quoted(self):
        x = Variable("x")
        query = ConjunctiveQuery("q", (x,), (RelationalAtom("r", (x, x)),))
        statement = render_sql_query(query, schema_with_r())
        assert '"r" "t0"' in statement.sql
        assert '"t0"."a"' in statement.sql

    def test_executes_on_sqlite(self):
        connection = sqlite3.connect(":memory:")
        connection.execute('CREATE TABLE "r" ("a", "b")')
        connection.executemany(
            'INSERT INTO "r" VALUES (?, ?)', [(1, 1), (2, 3), (4, 4)]
        )
        x = Variable("x")
        query = ConjunctiveQuery("q", (x,), (RelationalAtom("r", (x, x)),))
        statement = render_sql_query(query, schema_with_r())
        rows = connection.execute(statement.sql, statement.params).fetchall()
        assert sorted(rows) == [(1,), (4,)]
        connection.close()

    def test_zero_atom_query_executes(self):
        query = ConjunctiveQuery("q", (Constant("a"), Constant(2)), ())
        assert sqlite_run(render_sql_query(query)) == [("a", 2)]

    def test_zero_atom_filter_executes(self):
        satisfied = ConjunctiveQuery(
            "q", (Constant(1),), (EqualityAtom(Constant(2), Constant(2)),)
        )
        assert sqlite_run(render_sql_query(satisfied)) == [(1,)]
        falsified = ConjunctiveQuery(
            "q", (Constant(1),), (InequalityAtom(Constant(2), Constant(2)),)
        )
        assert sqlite_run(render_sql_query(falsified)) == []

    def test_unbound_head_variable_becomes_null(self):
        ghost = Variable("ghost")
        query = ConjunctiveQuery("q", (ghost,), ())
        statement = render_sql_query(query)
        assert "NULL" in statement.sql
        assert sqlite_run(statement) == [(None,)]

    def test_distinct_flag(self):
        x = Variable("x")
        query = ConjunctiveQuery("q", (x,), (RelationalAtom("r", (x, x)),))
        bag = render_sql_query(query, distinct=False)
        assert "DISTINCT" not in bag.sql
