"""Concurrent serving of MARS reformulations from pooled storage.

The :class:`PublishingService` is the front door of a deployment: a
thread-safe ``publish(query) -> rows`` API combining

* a :class:`PlanCache` — an LRU on the query's structural fingerprint
  *and the configuration version*, so repeat queries skip the C&B engine
  and plans computed under superseded views/constraints are flushed, not
  served;
* :class:`ConnectionPool`\\ s of backend clones with admission control
  (a bounded ``max_waiters`` queue; rejected acquires raise
  :class:`PoolExhaustedError` carrying the stats snapshot) — one pool per
  shard on a sharded deployment, so a partition-key-bound query occupies
  exactly one shard's connection;
* cost-based planning: at startup the service profiles the built
  backend and attaches the statistics catalog to its
  :class:`~repro.core.system.MarsSystem`, whose cheapest minimal
  reformulation is the one plan each request executes;
* a live write path: ``update(changeset)`` applies a
  :class:`~repro.replica.ChangeSet` to the template backend and appends
  it to per-pool :class:`~repro.replica.MutationLog`\\ s, pooled snapshot
  clones replay the tail at checkout/checkin, and ``publish`` enforces a
  read-your-writes LSN barrier — plus adaptive statistics re-collection
  when writes drift row counts past a threshold;
* online rebalancing: ``rebalance(shards=...)`` splits/merges a sharded
  deployment's shards under live traffic (fragment snapshot, mutation-log
  tail replay, atomic partition-map swap, pool rebuild, plan-cache
  flush);
* durability and self-healing: with ``log_dir`` configured the mutation
  logs are :class:`~repro.replica.DurableMutationLog`\\ s — acknowledged
  updates survive a restart (segment replay after an optional checkpoint
  restore), ``checkpoint()`` bounds the replay, and ``repair_replicas()``
  (or the ``auto_repair_interval`` background loop) re-provisions dead
  replicas back to K live copies from a live snapshot plus the log tail.

``stats()`` returns a :class:`ServiceStats` snapshot: served/computed
counters, cache hit rates, per-shard pool breakdowns (including
catch-up replay counts), the router's routing (and cost-comparison)
outcomes, and the write-path counters (updates applied, last LSN,
statistics refreshes, rebalances).
"""

from .cache import CacheStats, PlanCache
from .pool import ConnectionPool, PoolExhaustedError, PoolStats
from .service import PublishingService, ServiceStats

__all__ = [
    "CacheStats",
    "ConnectionPool",
    "PlanCache",
    "PoolExhaustedError",
    "PoolStats",
    "PublishingService",
    "ServiceStats",
]
