"""repro: a reproduction of MARS (Deutsch & Tannen, VLDB 2003).

MARS publishes XML views of mixed (relational + XML) and redundant
proprietary storage and reformulates client XBind queries against the
proprietary schema using the Chase & Backchase algorithm over a
relational compilation of queries, views and constraints.

Public entry points
-------------------
:class:`repro.core.MarsConfiguration`
    Declare public/proprietary schemas, views, constraints and data.
:class:`repro.core.MarsSystem`
    Reformulate XBind queries against the proprietary schema.
:class:`repro.core.MarsExecutor`
    Execute original and reformulated queries on instance data.
:class:`repro.engine.CBEngine`
    The underlying Chase & Backchase engine, usable on purely relational
    reformulation problems as well.
:class:`repro.serve.PublishingService`
    Thread-safe concurrent serving: plan cache + pooled backend connections.
:class:`repro.cost.CostModel` / :class:`repro.cost.StatisticsCatalog`
    Statistics-driven plan ranking and shard-routing cost comparisons.
"""

from .core import MarsConfiguration, MarsExecutor, MarsReformulation, MarsSystem
from .cost import CostModel, StatisticsCatalog
from .errors import (
    ChaseError,
    CompilationError,
    EvaluationError,
    MarsError,
    ParseError,
    ReformulationError,
    SchemaError,
    StorageError,
)
from .serve import ConnectionPool, PlanCache, PoolExhaustedError, PublishingService
from .shard import ShardedBackend

__version__ = "1.0.0"

__all__ = [
    "ChaseError",
    "CompilationError",
    "ConnectionPool",
    "CostModel",
    "EvaluationError",
    "MarsConfiguration",
    "MarsError",
    "MarsExecutor",
    "MarsReformulation",
    "MarsSystem",
    "ParseError",
    "PlanCache",
    "PoolExhaustedError",
    "PublishingService",
    "ReformulationError",
    "SchemaError",
    "ShardedBackend",
    "StatisticsCatalog",
    "StorageError",
    "__version__",
]
