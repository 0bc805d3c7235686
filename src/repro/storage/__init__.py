"""Relational storage: in-memory engine, SQL rendering, pluggable backends.

This package owns everything between a finished reformulation and its
rows:

* :mod:`repro.storage.relational_db` / :mod:`repro.storage.evaluation` —
  the original in-memory tables and hash-join evaluator;
* :mod:`repro.storage.sql` — display SQL (``render_sql``) and
  parameterized executable SQL (``render_sql_query``) for real engines;
* :mod:`repro.storage.backends` — the :class:`StorageBackend` protocol
  and registry (``memory`` / ``sqlite`` / ``sharded``); backends load
  tables, execute queries (recording operators when profiled), ``clone()`` for
  connection pooling and ``collect_statistics()`` for the cost model
  (statistics records and every estimate derived from them live in
  :mod:`repro.cost`).

Entry points: ``create_backend(spec)`` resolves a backend, and
``MarsConfiguration.backend`` / ``MARS_BACKEND`` select the default.
"""

from .backends import (
    MemoryBackend,
    SQLiteBackend,
    ShardedBackend,
    StorageBackend,
    available_backends,
    create_backend,
    register_backend,
)
from .evaluation import evaluate_query, materialize_view
from .relational_db import InMemoryDatabase, Table
from .sql import SQLQuery, render_sql, render_sql_query

__all__ = [
    "InMemoryDatabase",
    "MemoryBackend",
    "SQLQuery",
    "SQLiteBackend",
    "ShardedBackend",
    "StorageBackend",
    "Table",
    "available_backends",
    "create_backend",
    "evaluate_query",
    "materialize_view",
    "register_backend",
    "render_sql",
    "render_sql_query",
]
