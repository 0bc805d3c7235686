"""Rendering of conjunctive queries as SQL — display text and executable form.

The reformulations MARS produces over the relational part of the
proprietary storage are ultimately shipped to an RDBMS.  This module turns
a :class:`~repro.logical.queries.ConjunctiveQuery` into a ``SELECT``
statement, which is the "executable reformulation (SQL)" artifact of the
paper's Figure 2.  Two renderings are provided:

* :func:`render_sql` — human-readable text with constants inlined as
  literals, shown by the examples and stored on
  :class:`~repro.core.reformulation.MarsReformulation`;
* :func:`render_sql_query` — a :class:`SQLQuery` pair of a parameterized
  statement (``qmark`` style placeholders) and its parameter tuple, which
  the SQLite storage backend executes directly.

Queries with no relational atoms (the FROM clause would be empty) and
queries whose heads are constant-only both render valid SQL.

Equalities render as ``IS`` and inequalities as ``IS NOT``, so ``NULL``
compares like any other value: a ``NULL`` join key matches a ``NULL``,
as it does in the in-memory evaluator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..logical.atoms import EqualityAtom, InequalityAtom
from ..logical.queries import ConjunctiveQuery
from ..logical.schema import RelationalSchema
from ..logical.terms import Term, Variable, is_variable


@dataclass(frozen=True)
class SQLQuery:
    """A parameterized SQL statement and its parameters, ready to execute."""

    sql: str
    params: Tuple[object, ...] = ()

    def __str__(self) -> str:
        return self.sql


def quote_identifier(name: str) -> str:
    """Quote *name* as a SQL identifier (double quotes, doubled if embedded)."""
    escaped = name.replace('"', '""')
    return f'"{escaped}"'


def _attribute_name(
    schema: Optional[RelationalSchema], relation: str, position: int
) -> str:
    if schema is not None and relation in schema:
        return schema.relation(relation).attributes[position]
    return f"c{position}"


class _SQLBuilder:
    """Shared SELECT assembly for the literal and parameterized renderings.

    With ``parameterize=True`` constants become ``?`` placeholders collected
    into :attr:`params` in the order the placeholders appear in the statement
    (SELECT list first, then WHERE predicates); identifiers are quoted so
    GReX relation names and arbitrary attribute names are always valid.
    """

    def __init__(
        self,
        query: ConjunctiveQuery,
        schema: Optional[RelationalSchema],
        parameterize: bool,
    ):
        self.schema = schema
        self.parameterize = parameterize
        self.query = query.normalize_equalities()
        self.variable_columns: Dict[Variable, str] = {}
        self.aliases: List[Tuple[str, str]] = []
        self.select_params: List[object] = []
        self.predicate_params: List[object] = []

    # ------------------------------------------------------------------
    def _column(self, alias: str, relation: str, position: int) -> str:
        attribute = _attribute_name(self.schema, relation, position)
        if self.parameterize:
            return f"{quote_identifier(alias)}.{quote_identifier(attribute)}"
        return f"{alias}.{attribute}"

    def _value(self, value: object, params: List[object]) -> str:
        if self.parameterize:
            params.append(value)
            return "?"
        return _literal(value)

    def _term(self, term: Term, params: List[object]) -> str:
        if is_variable(term):
            column = self.variable_columns.get(term)
            if column is not None:
                return column
            # A head/filter variable not bound by any relational atom: the
            # query is unsafe, but the SQL must still be well formed.
            if self.parameterize:
                return "NULL"
            return f"/* unbound {term} */ NULL"
        return self._value(term.value, params)

    # ------------------------------------------------------------------
    def build(self, distinct: bool = True) -> Tuple[str, Tuple[object, ...]]:
        query = self.query
        predicates: List[str] = []
        for index, atom in enumerate(query.relational_body):
            alias = f"t{index}"
            self.aliases.append((atom.relation, alias))
            for position, term in enumerate(atom.terms):
                column = self._column(alias, atom.relation, position)
                if is_variable(term):
                    if term in self.variable_columns:
                        predicates.append(
                            f"{self.variable_columns[term]} IS {column}"
                        )
                    else:
                        self.variable_columns[term] = column
                else:
                    predicates.append(
                        f"{column} IS {self._value(term.value, self.predicate_params)}"
                    )

        for atom in query.body:
            if isinstance(atom, InequalityAtom):
                predicates.append(
                    f"{self._term(atom.left, self.predicate_params)} IS NOT "
                    f"{self._term(atom.right, self.predicate_params)}"
                )
            elif isinstance(atom, EqualityAtom):
                predicates.append(
                    f"{self._term(atom.left, self.predicate_params)} IS "
                    f"{self._term(atom.right, self.predicate_params)}"
                )

        select_items = [
            f"{self._term(term, self.select_params)} AS h{position}"
            for position, term in enumerate(query.head)
        ]
        keyword = "SELECT DISTINCT " if distinct else "SELECT "
        select_clause = keyword + (", ".join(select_items) if select_items else "1")
        clauses = [select_clause]
        if self.aliases:
            if self.parameterize:
                from_items = [
                    f"{quote_identifier(relation)} {quote_identifier(alias)}"
                    for relation, alias in self.aliases
                ]
            else:
                from_items = [f"{relation} {alias}" for relation, alias in self.aliases]
            clauses.append("FROM " + ", ".join(from_items))
        if predicates:
            clauses.append("WHERE " + "\n  AND ".join(predicates))
        return "\n".join(clauses), tuple(self.select_params + self.predicate_params)


def render_sql(
    query: ConjunctiveQuery, schema: Optional[RelationalSchema] = None
) -> str:
    """Render *query* as a SQL SELECT statement for display.

    Each relational atom becomes an aliased table in the FROM clause;
    repeated variables become ``IS`` predicates in the WHERE clause;
    constants become ``IS`` predicates against literals; the head becomes
    the SELECT list.  Queries with no relational atoms omit the FROM clause
    entirely, so constant-only queries still render valid SQL.
    """
    sql, _ = _SQLBuilder(query, schema, parameterize=False).build()
    return sql


def render_sql_query(
    query: ConjunctiveQuery,
    schema: Optional[RelationalSchema] = None,
    distinct: bool = True,
) -> SQLQuery:
    """Render *query* as executable parameterized SQL (``qmark`` placeholders)."""
    sql, params = _SQLBuilder(query, schema, parameterize=True).build(distinct=distinct)
    return SQLQuery(sql, params)


def _literal(value: object) -> str:
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return str(value)
