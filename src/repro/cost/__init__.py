"""Statistics and cost estimation: pricing plans over mixed, sharded storage.

MARS claims to pick the *minimum-cost* reformulation among the C&B
rewritings (paper Figure 2 plugs in a cost estimator); this subsystem makes
that claim statistics-driven instead of heuristic.  Two halves:

* :mod:`repro.cost.statistics` — :class:`StatisticsCatalog` /
  :class:`TableStatistics`: per-relation row counts, per-column distinct
  counts, per-shard fragment sizes and access weights.  Catalogs are
  declared (``MarsConfiguration.build_statistics()``) or collected from a
  live backend (``StorageBackend.collect_statistics()`` — exact counts
  on every backend, the sharded one by merging its children;
  ``sqlite_stat1`` feeds only SQLite's own join order).
* :mod:`repro.cost.model` — :class:`CostModel` / :class:`CostEstimate`:
  the only place a catalog turns into a number — System-R-style
  cardinality estimation and plan costs for ranking, the monotone
  ``lower_bound`` the backchase prunes with, the per-step ``pipeline``
  backends profile with, plus prices for the sharded
  execution modes (single / scatter / gather).

Entry points: :meth:`repro.core.system.MarsSystem.attach_statistics` ranks
reformulations with a collected catalog,
:meth:`repro.shard.backend.ShardedBackend.refresh_statistics` feeds the
shard router, and ``repro.serve.PublishingService`` does both at startup.
See ``docs/COST_MODEL.md`` for the formulas and a worked example.
"""

from .model import CostEstimate, CostModel, CostParameters
from .statistics import StatisticsCatalog, TableStatistics, profile_rows

__all__ = [
    "CostEstimate",
    "CostModel",
    "CostParameters",
    "StatisticsCatalog",
    "TableStatistics",
    "profile_rows",
]
