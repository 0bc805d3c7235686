"""Pluggable storage backends executing MARS reformulations.

The default ``memory`` backend runs the original hash-join evaluator; the
``sqlite`` backend ships the parameterized SQL to a real relational engine;
the ``sharded`` backend partitions tables over N child backends (any mix of
the other engines) with shard-pruning routing and scatter/gather execution.
Select one with ``create_backend("sqlite")`` or via
``MarsConfiguration.backend`` / ``MarsExecutor(configuration, backend=...)``.

Beyond loading and executing, every backend can measure a statistics
catalog of its own data (``collect_statistics()``, consumed by
:mod:`repro.cost`).  A backend does not explain itself: it records
operators into a profiled execution tree, and ``explain`` renders that.
"""

from .base import (
    Row,
    StorageBackend,
    available_backends,
    create_backend,
    default_backend_name,
    register_backend,
)
from .memory import MemoryBackend
from .sqlite import SQLiteBackend

register_backend("memory", MemoryBackend)
register_backend("sqlite", SQLiteBackend)

# Imported after the registry exists: the sharded and replicated backends
# build their child engines through create_backend at runtime but only need
# base.py at import time, so there is no cycle.
from ...shard.backend import ShardedBackend  # noqa: E402

register_backend("sharded", ShardedBackend)

from ...replica.backend import ReplicatedBackend  # noqa: E402

register_backend("replicated", ReplicatedBackend)

__all__ = [
    "MemoryBackend",
    "ReplicatedBackend",
    "Row",
    "SQLiteBackend",
    "ShardedBackend",
    "StorageBackend",
    "available_backends",
    "create_backend",
    "default_backend_name",
    "register_backend",
]
