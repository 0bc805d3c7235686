"""Unit tests for the in-memory relational engine and the XBind evaluator."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import EvaluationError, SchemaError
from repro.logical import (
    ConjunctiveQuery,
    EqualityAtom,
    InequalityAtom,
    RelationalAtom,
    RelationalSchema,
    const,
    var,
)
from repro.cost import StatisticsCatalog
from repro.storage import (
    InMemoryDatabase,
    MemoryBackend,
    evaluate_query,
    materialize_view,
    render_sql,
)
from repro.storage.relational_db import IndexedTable, Table
from repro.xbind import MixedStorage, PathAtom, XBindQuery, evaluate_xbind, make_xbind
from repro.xmlmodel import XMLDocument, XMLNode

x, y, z = var("x"), var("y"), var("z")


@pytest.fixture
def database():
    db = InMemoryDatabase()
    db.create_table("R", 2, ("a", "b"))
    db.create_table("S", 2, ("b", "c"))
    db.insert_many("R", [(1, 10), (2, 20), (3, 10)])
    db.insert_many("S", [(10, "x"), (20, "y")])
    return db


class TestInMemoryDatabase:
    def test_insert_and_cardinality(self, database):
        assert database.cardinality("R") == 3
        assert database.cardinality("missing") == 0

    def test_arity_validation(self, database):
        with pytest.raises(EvaluationError):
            database.insert("R", (1,))

    def test_insert_many_checks_every_row_first(self, database):
        with pytest.raises(EvaluationError):
            database.insert_many("R", [(4, 40), (5,)])
        assert database.rows("R") == ((1, 10), (2, 20), (3, 10))

    def test_a_table_builds_its_index_per_call(self, database):
        table = database.table("R")
        index = table.index((1,))
        assert index == {(10,): [(1, 10), (3, 10)], (20,): [(2, 20)]}
        assert table.index((1,)) is not index

    @pytest.mark.parametrize("positions", [(), (1,), (2, 0, 1)])
    def test_an_index_keys_rows_by_their_values_at_the_positions(self, positions):
        table = Table("T", 3)
        table.insert_many([(1, "a", None), (2, "b", 7), (1, "a", None), (3, "a", 7)])
        expected = {}
        for row in table.rows:
            expected.setdefault(tuple(row[p] for p in positions), []).append(row)
        assert table.index(positions) == expected

    def test_indexes_are_kept_until_the_next_write(self, database):
        table = IndexedTable("R", 2, ("a", "b"))
        table.insert_many(database.rows("R"))
        index = table.index((1,))
        assert index == {(10,): [(1, 10), (3, 10)], (20,): [(2, 20)]}
        assert table.index((1,)) is index
        for write in (
            lambda: table.insert_many([(4, 10)]),
            lambda: table.delete_many([(4, 10)]),
            table.clear,
        ):
            write()
            fresh = table.index((1,))
            assert fresh is not index
            index = fresh
        assert index == {}
        # A write that changes nothing keeps the index.
        assert table.delete_many([(9, 9)]) == 0
        table.insert_many([])
        assert table.index((1,)) is index

    def test_duplicate_table_rejected(self, database):
        with pytest.raises(SchemaError):
            database.create_table("R", 2)

    def test_schema_backed_database(self):
        schema = RelationalSchema()
        schema.add_relation("T", ["k", "v"])
        db = InMemoryDatabase(schema)
        assert db.has_table("T")
        assert db.table("T").attributes == ("k", "v")


class TestEvaluateQuery:
    def test_join(self, database):
        query = ConjunctiveQuery(
            "Q", (x, z), (RelationalAtom("R", (x, y)), RelationalAtom("S", (y, z)))
        )
        rows = evaluate_query(query, database)
        assert sorted(rows) == [(1, "x"), (2, "y"), (3, "x")]

    def test_constant_selection(self, database):
        query = ConjunctiveQuery("Q", (x,), (RelationalAtom("R", (x, const(10))),))
        assert sorted(evaluate_query(query, database)) == [(1,), (3,)]

    def test_inequality_filter(self, database):
        query = ConjunctiveQuery(
            "Q",
            (x,),
            (RelationalAtom("R", (x, y)), InequalityAtom(y, const(10))),
        )
        assert evaluate_query(query, database) == [(2,)]

    def test_equality_normalization(self, database):
        query = ConjunctiveQuery(
            "Q",
            (x,),
            (
                RelationalAtom("R", (x, y)),
                RelationalAtom("S", (z, const("x"))),
                EqualityAtom(y, z),
            ),
        )
        assert sorted(evaluate_query(query, database)) == [(1,), (3,)]

    def test_distinct_semantics(self, database):
        query = ConjunctiveQuery("Q", (y,), (RelationalAtom("R", (x, y)),))
        rows = evaluate_query(query, database)
        assert sorted(rows) == [(10,), (20,)]
        bag = evaluate_query(query, database, distinct=False)
        assert len(bag) == 3

    def test_unknown_table_raises(self, database):
        query = ConjunctiveQuery("Q", (x,), (RelationalAtom("T", (x,)),))
        with pytest.raises(EvaluationError):
            evaluate_query(query, database)

    def test_materialize_view(self, database):
        query = ConjunctiveQuery(
            "V", (x, z), (RelationalAtom("R", (x, y)), RelationalAtom("S", (y, z)))
        )
        materialize_view("V", query, database)
        assert database.cardinality("V") == 3
        # re-materialization replaces the contents
        materialize_view("V", query, database)
        assert database.cardinality("V") == 3


class TestSqlRendering:
    def test_render_join_with_where(self, database):
        query = ConjunctiveQuery(
            "Q",
            (x, z),
            (
                RelationalAtom("R", (x, y)),
                RelationalAtom("S", (y, z)),
                InequalityAtom(z, const("y")),
            ),
        )
        sql = render_sql(query)
        assert "SELECT DISTINCT" in sql
        assert "FROM R t0, S t1" in sql
        assert "t0.c1 IS t1.c0" in sql
        assert "IS NOT 'y'" in sql

    def test_render_uses_schema_attribute_names(self):
        schema = RelationalSchema()
        schema.add_relation("R", ["key", "val"])
        query = ConjunctiveQuery("Q", (x,), (RelationalAtom("R", (x, const(3))),))
        sql = render_sql(query, schema)
        assert "t0.val IS 3" in sql

    def test_string_literals_escaped(self):
        query = ConjunctiveQuery("Q", (x,), (RelationalAtom("R", (x, const("o'hara"))),))
        assert "'o''hara'" in render_sql(query)


class TestStatistics:
    def test_defaults_and_overrides(self):
        stats = StatisticsCatalog()
        assert stats.row_count("anything") == stats.default_row_count
        stats.set_cardinality("R", 5)
        stats.set_weight("R", 2.0)
        assert stats.scan_cost("R") == 10.0

    def test_from_database(self, database):
        stats = MemoryBackend(database).refresh_statistics(access_weights={"R": 3.0})
        assert stats.row_count("R") == 3
        assert stats.weight("R") == 3.0


@pytest.fixture
def library_storage():
    root = XMLNode("library")
    for title, author in [("TAPL", "Pierce"), ("HoTT", "Univalent")]:
        book = root.add("book")
        book.add("title", title)
        book.add("author", author)
    document = XMLDocument("books.xml", root)
    database = InMemoryDatabase()
    database.create_table("prices", 2, ("title", "price"))
    database.insert_many("prices", [("TAPL", 60), ("HoTT", 0)])
    return MixedStorage({"books.xml": document}, database)


class TestXBindEvaluation:
    def test_absolute_and_relative_paths(self, library_storage):
        b, t, a = var("b"), var("t"), var("a")
        query = make_xbind(
            "Q",
            (t, a),
            (
                PathAtom("//book", b, document="books.xml"),
                PathAtom("./title/text()", t, source=b),
                PathAtom("./author/text()", a, source=b),
            ),
        )
        rows = evaluate_xbind(query, library_storage)
        assert sorted(rows) == [("HoTT", "Univalent"), ("TAPL", "Pierce")]

    def test_join_with_relational_atom(self, library_storage):
        b, t, p = var("b"), var("t"), var("p")
        query = make_xbind(
            "Q",
            (t, p),
            (
                PathAtom("//book", b, document="books.xml"),
                PathAtom("./title/text()", t, source=b),
                RelationalAtom("prices", (t, p)),
            ),
        )
        rows = evaluate_xbind(query, library_storage)
        assert ("TAPL", 60) in rows and ("HoTT", 0) in rows

    def test_inequality_filter(self, library_storage):
        b, t = var("b"), var("t")
        query = make_xbind(
            "Q",
            (t,),
            (
                PathAtom("//book", b, document="books.xml"),
                PathAtom("./title/text()", t, source=b),
                InequalityAtom(t, const("TAPL")),
            ),
        )
        assert evaluate_xbind(query, library_storage) == [("HoTT",)]

    def test_constant_target_filters(self, library_storage):
        b, t = var("b"), var("t")
        query = make_xbind(
            "Q",
            (t,),
            (
                PathAtom("//book", b, document="books.xml"),
                PathAtom("./author/text()", const("Pierce"), source=b),
                PathAtom("./title/text()", t, source=b),
            ),
        )
        assert evaluate_xbind(query, library_storage) == [("TAPL",)]

    def test_node_results_externalized_to_ids(self, library_storage):
        b = var("b")
        query = make_xbind(
            "Q", (b,), (PathAtom("//book", b, document="books.xml"),)
        )
        rows = evaluate_xbind(query, library_storage)
        assert all(isinstance(row[0], str) and "#" in row[0] for row in rows)

    def test_unsafe_query_rejected(self):
        with pytest.raises(SchemaError):
            make_xbind("Q", (var("t"),), (PathAtom("//book", var("b")),))

    def test_missing_document_raises(self, library_storage):
        query = make_xbind(
            "Q", (var("b"),), (PathAtom("//book", var("b"), document="nope.xml"),)
        )
        with pytest.raises(EvaluationError):
            evaluate_xbind(query, library_storage)


@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20))
def test_property_join_matches_python_semantics(pairs):
    database = InMemoryDatabase()
    database.create_table("E", 2)
    database.insert_many("E", pairs)
    query = ConjunctiveQuery(
        "Q", (x, z), (RelationalAtom("E", (x, y)), RelationalAtom("E", (y, z)))
    )
    rows = set(evaluate_query(query, database))
    expected = {(a, d) for (a, b) in pairs for (c, d) in pairs if b == c}
    assert rows == expected
