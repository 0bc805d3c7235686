"""Shared fixtures: backend-matrix plumbing and the random-query generator.

Three pieces live here because several test modules need them:

* ``mars_backend`` — the storage-backend name the suite's *default*
  configurations run on.  ``MarsConfiguration`` reads the ``MARS_BACKEND``
  environment variable, so CI runs the whole tier-1 suite once per engine
  (``memory`` and ``sqlite``) by flipping one env value; the fixture simply
  exposes the active name to tests that want to log or assert it.

* :class:`RandomQueryGenerator` — seeded random conjunctive queries (and
  families of same-arity union disjuncts) over the tables a built backend
  actually holds, used by the randomized differential tests as a
  cross-backend oracle.  No hypothesis
  dependency: a seeded :class:`random.Random` makes every failure
  reproducible from the test id alone.

* ``full_sweep`` — ``full_sweep(backend)`` is the catalog *backend*
  measures with no kept statistics: every table of every part measured
  now, the oracle a refresh that re-measures only written tables must
  equal.

* ``explain`` — ``explain(backend, query)`` is the text ``explain`` shows
  for one profiled run of *query* on a bare backend (backends do not
  explain themselves; ``MarsExecutor.explain_reformulation`` renders the
  same tree).
"""

import random
from typing import Dict, List, Optional, Sequence, Tuple

import pytest

from repro.logical.atoms import InequalityAtom, RelationalAtom
from repro.logical.queries import ConjunctiveQuery
from repro.logical.terms import Constant, Variable
from repro.obs import operator_root
from repro.profile import EXECUTE, QueryProfile
from repro.cost.statistics import KeptStatistics
from repro.storage.backends import (
    MemoryBackend,
    SQLiteBackend,
    StorageBackend,
    default_backend_name,
)


@pytest.fixture
def mars_backend() -> str:
    """The backend name default-constructed configurations will use."""
    return default_backend_name()


class RandomQueryGenerator:
    """Generate random conjunctive queries over a backend's actual tables.

    Queries are built so both engines must agree on them: every head
    variable is bound by a relational atom, constants are drawn from values
    actually stored in the column they constrain (so selections are
    non-trivially satisfiable), and join variables prefer columns with
    overlapping value sets (so joins are non-trivially non-empty).
    """

    def __init__(self, backend: StorageBackend, seed: int, max_atoms: int = 3):
        self.rng = random.Random(seed)
        self.max_atoms = max_atoms
        self.tables: Dict[str, List[Tuple[object, ...]]] = {}
        for name in backend.table_names:
            rows = [tuple(row) for row in backend.rows(name)]
            if rows:
                self.tables[name] = rows
        if not self.tables:
            raise ValueError("backend holds no populated tables to query")
        self._names = sorted(self.tables)
        self._counter = 0

    # ------------------------------------------------------------------
    def _fresh_variable(self) -> Variable:
        self._counter += 1
        return Variable(f"rv{self._counter}")

    def _column_values(self, table: str, position: int) -> List[object]:
        return [row[position] for row in self.tables[table]]

    def conjunctive(self, name: str, head_arity: Optional[int] = None) -> ConjunctiveQuery:
        rng = self.rng
        atom_count = rng.randint(1, self.max_atoms)
        atoms: List[RelationalAtom] = []
        # variable -> sample of values it may take, used to bias joins
        # toward columns whose value sets overlap.
        var_values: Dict[Variable, set] = {}
        for _ in range(atom_count):
            table = rng.choice(self._names)
            arity = len(self.tables[table][0])
            terms = []
            for position in range(arity):
                column = set(self._column_values(table, position))
                roll = rng.random()
                joinable = [
                    v for v, values in var_values.items() if values & column
                ]
                if joinable and roll < 0.35:
                    variable = rng.choice(joinable)
                    var_values[variable] = var_values[variable] & column
                    terms.append(variable)
                elif roll < 0.5:
                    terms.append(Constant(rng.choice(sorted(column, key=repr))))
                else:
                    variable = self._fresh_variable()
                    var_values[variable] = column
                    terms.append(variable)
            atoms.append(RelationalAtom(table, tuple(terms)))
        variables = sorted(var_values, key=lambda v: v.name)
        if head_arity is None:
            head_arity = rng.randint(1, min(3, len(variables))) if variables else 1
        if not variables:
            # all-constant atoms: give the query a constant head
            head = tuple(Constant("hit") for _ in range(head_arity))
            return ConjunctiveQuery(name, head, tuple(atoms))
        head = tuple(rng.choice(variables) for _ in range(head_arity))
        body: List = list(atoms)
        if len(variables) >= 2 and rng.random() < 0.3:
            left, right = rng.sample(variables, 2)
            body.append(InequalityAtom(left, right))
        return ConjunctiveQuery(name, head, tuple(body))

    def disjuncts(self, name: str) -> Tuple[ConjunctiveQuery, ...]:
        """2-3 random conjunctive queries sharing one head arity: the
        disjuncts of a union, each to be run as its own plan."""
        count = self.rng.randint(2, 3)
        arity = self.rng.randint(1, 2)
        return tuple(
            self.conjunctive(f"{name}_d{index}", head_arity=arity)
            for index in range(count)
        )

    def key_bound_conjunctive(
        self, name: str, table: str, position: int
    ) -> ConjunctiveQuery:
        """A single-table query binding column *position* to a stored value.

        Used by the sharding differential tests: binding a table's
        partition-key column to a constant makes the query prunable to one
        shard, and drawing the constant from the stored data keeps the
        answer non-trivially non-empty.
        """
        rng = self.rng
        value = rng.choice(sorted(set(self._column_values(table, position)), key=repr))
        arity = len(self.tables[table][0])
        terms: List = []
        variables: List[Variable] = []
        for index in range(arity):
            if index == position:
                terms.append(Constant(value))
            else:
                variable = self._fresh_variable()
                variables.append(variable)
                terms.append(variable)
        head = tuple(variables) if variables else (Constant("hit"),)
        return ConjunctiveQuery(name, head, (RelationalAtom(table, tuple(terms)),))


@pytest.fixture
def query_generator():
    """Factory fixture: ``query_generator(backend, seed)`` -> generator."""

    def build(backend: StorageBackend, seed: int, **kwargs) -> RandomQueryGenerator:
        return RandomQueryGenerator(backend, seed, **kwargs)

    return build


@pytest.fixture
def full_sweep(monkeypatch):
    """``full_sweep(backend)`` -> the catalog with nothing kept."""

    def sweep(backend):
        with monkeypatch.context() as patch:
            for engine in (MemoryBackend, SQLiteBackend):
                patch.setattr(engine, "_kept_statistics", lambda self: KeptStatistics())
            return backend.collect_statistics()

    return sweep


@pytest.fixture
def explain():
    """Factory fixture: ``explain(backend, query)`` -> one profiled run of
    *query* on *backend*, rendered."""

    def render(backend: StorageBackend, query) -> str:
        with operator_root(EXECUTE, query.name) as root:
            rows = backend.execute(query)
        root.finish(actual_rows=len(rows))
        return QueryProfile(root).render()

    return render
